package hbase

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"met/internal/hdfs"
	"met/internal/sim"
)

// ErrUnknownTable is returned for operations on absent tables.
var ErrUnknownTable = errors.New("hbase: unknown table")

// ErrUnknownServer is returned for operations on absent servers.
var ErrUnknownServer = errors.New("hbase: unknown region server")

// ErrNoServers is returned when the cluster has no running servers.
var ErrNoServers = errors.New("hbase: no region servers")

// ErrTableExists is returned by CreateTable for a name already taken
// (including one recovered from the catalog by a cold start).
var ErrTableExists = errors.New("hbase: table exists")

// ErrClusterExists is returned by NewDurableMaster when the data
// directory already holds a committed cluster layout; cold-start it
// with OpenCluster instead.
var ErrClusterExists = errors.New("hbase: data directory already holds a cluster")

// RandomBalancer reproduces HBase's default randomized placement: it
// evenly distributes the *number* of regions per server but is oblivious
// to their load — precisely the behaviour the paper shows "leaves
// performance to chance".
type RandomBalancer struct {
	// RNG drives the shuffle. A nil RNG yields deterministic
	// round-robin (useful in tests).
	RNG *sim.RNG
}

// Assign maps each region name to one of servers.
func (b *RandomBalancer) Assign(regions []string, servers []string) map[string]string {
	out := make(map[string]string, len(regions))
	if len(servers) == 0 {
		return out
	}
	shuffled := append([]string(nil), regions...)
	sort.Strings(shuffled)
	if b.RNG != nil {
		b.RNG.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	}
	for i, r := range shuffled {
		out[r] = servers[i%len(servers)]
	}
	return out
}

// Master is the in-process cluster coordinator: it runs the live
// RegionServers, claims what operations have in flight, and places new
// regions with a RandomBalancer whose RNG is nil — the sorted regions
// round-robin over the sorted servers open to them. The layout itself —
// which regions exist, which server hosts each, which servers follow it
// — is its LayoutMaster's committed table rows and nothing else: every
// layout verb does its region-server work with direct calls, then makes
// one row edit there, and clients, HostOf, Assignment and Table read the
// route table that edit published. mu guards only the membership and
// the reservations; the client hot path takes it shared, once per
// operation, to find the server its route names.
type Master struct {
	mu sync.RWMutex

	namenode *hdfs.Namenode
	// layout owns the catalog rows, the route table, the split
	// sequence, every commit, follower placement and the failover loop
	// (node.go, recovery.go).
	layout  *LayoutMaster
	servers map[string]*RegionServer
	// reserved claims what operations have in flight, keyed by kind:
	// "table/<name>" for CreateTable and "server/<name>" for AddServer,
	// so two concurrent calls for one name cannot both pass the
	// existence check; "snapshot/<table>/<name>" for Snapshot, whose
	// error path deletes the shared archive directory and must never
	// race a committer; "region/<name>" for a move or split; and
	// "leaving/<server>" for a decommission drain — the server still
	// serves what it hosts, but takes no new regions.
	reserved map[string]bool
	moves    atomic.Int64
}

// NewMaster creates a master over the given namenode with in-memory-only
// metadata (no catalog).
func NewMaster(nn *hdfs.Namenode) *Master {
	return newMaster(nn, newLayoutMaster(nil, nn.Replication()))
}

func newMaster(nn *hdfs.Namenode, layout *LayoutMaster) *Master {
	return &Master{
		namenode: nn,
		layout:   layout,
		servers:  make(map[string]*RegionServer),
		reserved: make(map[string]bool),
	}
}

// NewDurableMaster creates a master whose layout metadata — server
// membership and configs, table schemas, region bounds and assignment —
// persists to the META catalog under dataDir, so the whole cluster can
// later cold-start from the data directory alone via OpenCluster.
func NewDurableMaster(nn *hdfs.Namenode, dataDir string) (*Master, error) {
	cat, err := openCatalog(dataDir)
	if err != nil {
		return nil, err
	}
	// A data directory that already holds a committed layout belongs to
	// an existing cluster: silently building a fresh master over it
	// would interleave two layouts in one catalog. Cold-starting is
	// OpenCluster's job.
	if st, err := cat.loadAll(); err != nil {
		cat.close()
		return nil, err
	} else if len(st.servers) > 0 || len(st.tables) > 0 {
		cat.close()
		return nil, fmt.Errorf("%w: %q (%d servers, %d tables); use OpenCluster to cold-start it",
			ErrClusterExists, dataDir, len(st.servers), len(st.tables))
	}
	lm := newLayoutMaster(cat, nn.Replication())
	if err := lm.commitClusterLocked(); err != nil { // lm is not shared yet
		cat.close()
		return nil, err
	}
	return newMaster(nn, lm), nil
}

// reserveLocked claims key (see Master.reserved) and reports whether it
// was free. Callers hold mu.
func (m *Master) reserveLocked(key string) bool {
	if m.reserved[key] {
		return false
	}
	m.reserved[key] = true
	return true
}

// reserve is reserveLocked for callers outside the lock.
func (m *Master) reserve(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reserveLocked(key)
}

// release drops a claim.
func (m *Master) release(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.reserved, key)
}

// placement lists the servers open to new regions — every member not
// being drained — sorted.
func (m *Master) placement() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.servers))
	for n := range m.servers {
		if !m.reserved["leaving/"+n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// target returns a server that may take a region: a member that is not
// being drained.
func (m *Master) target(name string) (*RegionServer, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rs, ok := m.servers[name]
	if !ok || m.reserved["leaving/"+name] {
		return nil, ErrUnknownServer
	}
	return rs, nil
}

// AddServer registers a new region server with the cluster. With a
// catalog, the membership row is committed BEFORE the server becomes
// visible in the cluster: no region can ever be assigned (and durably
// committed) to a server whose own row might still fail to write, so
// the catalog never references an uncommitted server. A crash before
// the commit leaves the server cleanly absent after cold start; a crash
// after it cold-starts the server as an empty member.
func (m *Master) AddServer(name string, cfg ServerConfig) (*RegionServer, error) {
	key := "server/" + name
	m.mu.Lock()
	if _, ok := m.servers[name]; ok || !m.reserveLocked(key) {
		m.mu.Unlock()
		return nil, fmt.Errorf("hbase: server %q already registered", name)
	}
	rs, err := NewRegionServer(name, cfg, m.namenode)
	m.mu.Unlock()
	defer m.release(key)
	if err != nil {
		return nil, err
	}
	m.layout.crash("addserver.registered")
	if err := m.layout.commitServer(name, cfg); err != nil {
		rs.Shutdown()
		m.namenode.RemoveDatanode(name)
		return nil, err
	}
	m.mu.Lock()
	m.servers[name] = rs
	m.mu.Unlock()
	return rs, nil
}

// DecommissionServer drains a server's regions onto the remaining
// servers (least-loaded first) and removes it from the cluster. Each
// region leaves through the same make-before-break move as MoveRegion,
// one row edit each; until the drain ends the server keeps serving what
// it still hosts, but takes no new regions. A region that cannot leave
// stops the decommission with the server still a member.
func (m *Master) DecommissionServer(name string) error {
	key := "leaving/" + name
	m.mu.Lock()
	rs, ok := m.servers[name]
	if ok && !m.reserveLocked(key) {
		m.mu.Unlock()
		return fmt.Errorf("hbase: decommission %s: already in progress", name)
	}
	m.mu.Unlock()
	if !ok {
		return ErrUnknownServer
	}
	defer m.release(key)
	names := m.placement()
	var targets []*RegionServer
	for _, n := range names {
		if t, err := m.target(n); err == nil {
			targets = append(targets, t)
		}
	}
	// Drain until the layout names nothing here: a region that split
	// or failed over mid-drain left under another name, and its
	// successors go in the next pass.
	for {
		var drain []string
		for _, lr := range m.layout.routes.Load().regions {
			if lr.Server == name {
				drain = append(drain, lr.Name)
			}
		}
		if len(drain) == 0 {
			break
		}
		if len(targets) == 0 {
			return ErrNoServers // cannot strand regions
		}
		var errs []error
		for _, region := range drain {
			// Least regions first keeps counts balanced.
			sort.SliceStable(targets, func(i, j int) bool { return targets[i].NumRegions() < targets[j].NumRegions() })
			if err := m.moveRegion(region, targets[0]); err != nil {
				if host, ok := m.HostOf(region); ok && host == name {
					errs = append(errs, err)
				}
			}
		}
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
	}
	// Each drained region committed on its own; a crash here cold-starts
	// into the drained layout with this server still a member.
	m.layout.crash("decommission.drained")
	rs.Shutdown() // stop serving and drain the compactor and replicator
	m.namenode.RemoveDatanode(name)
	// Regions elsewhere that replicated onto this server get new
	// followers; their old replica directories become orphans the next
	// cold start sweeps.
	err := m.layout.removeServer(name, m.refollow)
	m.mu.Lock()
	delete(m.servers, name)
	m.mu.Unlock()
	return err
}

// RestartServer applies a new configuration to a server (stop, reopen
// every hosted store, start — RegionServer.Restart) through the master,
// which persists the new profile to the catalog: a cold start re-creates
// the server as reprofiled, not as originally added. The catalog write
// happens after the restart succeeds; a crash between cold-starts the
// server on its previous profile, which is consistent (the restart's
// effects on data are profile-independent).
func (m *Master) RestartServer(name string, cfg ServerConfig) error {
	rs, err := m.Server(name)
	if err != nil {
		return err
	}
	if err := rs.Restart(cfg); err != nil {
		return err
	}
	return m.layout.commitServer(name, cfg)
}

// Server returns a registered server.
func (m *Master) Server(name string) (*RegionServer, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rs, ok := m.servers[name]
	if !ok {
		return nil, ErrUnknownServer
	}
	return rs, nil
}

// Servers returns all servers sorted by name.
func (m *Master) Servers() []*RegionServer {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*RegionServer, 0, len(m.servers))
	for _, s := range m.servers {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// staged is a new layout's regions, built on their hosts ahead of the
// row edit that names them; nothing serves them yet.
type staged struct {
	regions []*Region
	hosts   []*RegionServer
}

// open starts serving the regions once the row naming them committed.
func (st staged) open() {
	for i, r := range st.regions {
		st.hosts[i].OpenRegion(r)
	}
}

// discard abandons the regions when that row edit did not happen: each
// store closes and its durable directory is reclaimed.
func (st staged) discard() {
	for i, r := range st.regions {
		discardRegionStore(st.hosts[i], r)
	}
}

// stage builds the regions of rows — each carrying a name and bounds —
// on the servers a nil-RNG RandomBalancer places them on, and completes
// each row with its host and followers: the region-server work of
// CreateTable and RestoreSnapshot. seed, when set, fills region i's
// directory under its host's data root before the store opens. On an
// error every region built so far is discarded.
func (m *Master) stage(table string, rows []regionRow, seed func(dataDir string, i int) error) (staged, error) {
	servers := m.placement()
	if len(servers) == 0 {
		return staged{}, ErrNoServers
	}
	names := make([]string, len(rows))
	for i, rr := range rows {
		names[i] = rr.Name
	}
	plan := (&RandomBalancer{}).Assign(names, servers)
	var st staged
	var placed []string // hosts of the regions built so far: follower placement and memstore shares count them
	for i := range rows {
		rr := &rows[i]
		rs, err := m.target(plan[rr.Name])
		if err == nil && seed != nil {
			err = seed(rs.Config().DataDir, i)
		}
		var r *Region
		if err == nil {
			n := rs.NumRegions() + 1
			for _, h := range placed {
				if h == rs.Name() {
					n++
				}
			}
			r, err = newRegionNamed(rr.Name, table, rr.Start, rr.End, rs.storeConfigFor(rr.Name, n))
		}
		if err != nil {
			st.discard()
			return staged{}, err
		}
		rr.Server = rs.Name()
		rr.Followers = m.layout.pickFollowers(rr.Server, placed)
		r.SetFollowers(rr.Followers)
		st.regions = append(st.regions, r)
		st.hosts = append(st.hosts, rs)
		placed = append(placed, rr.Server)
	}
	return st, nil
}

// CreateTable creates a table pre-split into the given regions.
// splitKeys must be sorted; n split keys produce n+1 regions.
//
// The name is reserved in one critical section — two concurrent
// CreateTable calls for the same name cannot interleave past the
// existence check; exactly one wins. Every region is built on its host
// first; a failure on the way (a region that cannot be opened) discards
// every region already built, directories included, so a failed
// creation leaves nothing behind. Then the table row commits — with a
// catalog, the durable commit point: a crash before it leaves the table
// cleanly absent (its directories are swept at the next cold start) —
// and only then do the hosts start serving the regions.
func (m *Master) CreateTable(name string, splitKeys []string) (*Table, error) {
	for i := 1; i < len(splitKeys); i++ {
		if splitKeys[i] <= splitKeys[i-1] {
			return nil, fmt.Errorf("hbase: split keys not strictly sorted at %d", i)
		}
	}
	key := "table/" + name
	m.mu.Lock()
	if _, ok := m.layout.routes.Load().tables[name]; ok || !m.reserveLocked(key) {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	m.mu.Unlock()
	defer m.release(key)

	// n split keys bound n+1 regions: ["", k0), [k0, k1), ..., [kn-1, "").
	rows := make([]regionRow, 0, len(splitKeys)+1)
	start := ""
	for _, end := range append(slices.Clone(splitKeys), "") {
		rows = append(rows, regionRow{Name: regionName(name, start), Start: start, End: end})
		start = end
	}
	st, err := m.stage(name, rows, nil)
	if err != nil {
		return nil, fmt.Errorf("hbase: create table %q: %w", name, err)
	}
	m.layout.crash("createtable.regions-open")
	if err := m.layout.putTable(name, tableRow{SplitKeys: slices.Clone(splitKeys), Regions: rows}); err != nil {
		st.discard()
		return nil, err
	}
	st.open()
	return m.Table(name)
}

// Table returns a read-only snapshot of a table: the regions the
// current route table lays out, resolved on their hosts. A region its
// host does not hold at that instant — a split parent between its close
// and the commit that replaces it — is absent from the snapshot.
func (m *Master) Table(name string) (*Table, error) {
	rows, ok := m.layout.routes.Load().tables[name]
	if !ok {
		return nil, ErrUnknownTable
	}
	t := &Table{regions: make([]*Region, 0, len(rows))}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, lr := range rows {
		if rs := m.servers[lr.Server]; rs != nil {
			if r := rs.region(lr.Name); r != nil {
				t.regions = append(t.regions, r)
			}
		}
	}
	return t, nil
}

// Tables returns all table names sorted.
func (m *Master) Tables() []string {
	return slices.Sorted(maps.Keys(m.layout.routes.Load().tables))
}

// HostOf returns the server the committed layout assigns a region.
func (m *Master) HostOf(regionName string) (string, bool) {
	lr, ok := m.layout.routes.Load().region(regionName)
	return lr.Server, ok
}

// Assignment returns a copy of the full region -> server map.
func (m *Master) Assignment() map[string]string {
	rt := m.layout.routes.Load()
	out := make(map[string]string, len(rt.regions))
	for _, lr := range rt.regions {
		out[lr.Name] = lr.Server
	}
	return out
}

// MoveRegion transfers a region between servers. The region's HDFS files
// stay where they are, so the destination's locality index degrades until
// a major compaction — the central mechanism of Sections 2 and 5.
func (m *Master) MoveRegion(regionName, dstServer string) error {
	dst, err := m.target(dstServer)
	if err != nil {
		return err
	}
	return m.moveRegion(regionName, dst)
}

// moveRegion hands a region to dst make-before-break, so that at every
// instant the server a client's route names serves the region:
//
//  1. the source stops shipping it (its replicas are the destination's
//     to keep from here on) but goes on serving it;
//  2. the destination opens it, switching its store onto the
//     destination's log — the flush that switch makes leaves nothing
//     for the region in the source's log before the commit names the
//     new host;
//  3. one row edit commits the new host, and routing follows it;
//  4. the source drops it: a client still holding the old route gets
//     ErrWrongRegionServer and re-routes to the destination.
//
// A crash between 2 and 3 cold-starts the region on its old host —
// correct either way, because region data directories are keyed by
// region name, not server. When the commit fails the hand-off is
// undone — the destination drops the region, the source takes it back
// — and the layout stays what the catalog holds. MoveRegion and the
// DecommissionServer drain both move through here.
func (m *Master) moveRegion(name string, dst *RegionServer) error {
	key := "region/" + name
	if !m.reserve(key) {
		return fmt.Errorf("hbase: region %q has an operation in flight", name)
	}
	defer m.release(key)
	lr, ok := m.layout.routes.Load().region(name)
	if !ok {
		return fmt.Errorf("hbase: unknown region %q", name)
	}
	if lr.Server == dst.Name() {
		return nil
	}
	src, err := m.Server(lr.Server)
	if err != nil {
		return fmt.Errorf("hbase: region %q host %q vanished", name, lr.Server)
	}
	r := src.handOff(name)
	if r == nil {
		return fmt.Errorf("hbase: region %q not open on %q", name, lr.Server)
	}
	// The live region's followers, not the route's: a follower re-pick
	// (removeServer) may have landed since the route was read.
	prev := r.Followers()
	followers := prev
	if slices.Contains(followers, dst.Name()) {
		// A copy co-located with the primary protects nothing: re-pick
		// before the destination starts shipping.
		followers = m.layout.pickFollowers(dst.Name(), nil)
		r.SetFollowers(followers)
	}
	dst.OpenRegion(r)
	m.layout.crash("moveregion.moved")
	moved := regionRow{Name: name, Start: lr.Start, End: lr.End, Server: dst.Name(), Followers: followers}
	if err := m.layout.replaceRegion(lr.Table, name, moved); err != nil {
		dst.CloseRegion(name)
		r.SetFollowers(prev)
		src.OpenRegion(r)
		return err
	}
	src.CloseRegion(name)
	m.moves.Add(1)
	return nil
}

// Moves returns the cumulative number of region moves, an actuation-cost
// metric the Output Computation stage minimizes.
func (m *Master) Moves() int64 { return m.moves.Load() }

func regionName(table, startKey string) string {
	return fmt.Sprintf("%s,%s", table, startKey)
}
