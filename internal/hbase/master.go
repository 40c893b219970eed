package hbase

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

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

// Balancer decides where regions go. The paper contrasts HBase's
// randomized out-of-the-box placement with informed strategies; both are
// implemented behind this interface.
type Balancer interface {
	// Assign maps each region name to a server name. Implementations
	// must assign every region to one of the given servers.
	Assign(regions []string, servers []string) map[string]string
}

// RandomBalancer reproduces HBase's default randomized placement: it
// evenly distributes the *number* of regions per server but is oblivious
// to their load — precisely the behaviour the paper shows "leaves
// performance to chance".
type RandomBalancer struct {
	// RNG drives the shuffle. A nil RNG yields deterministic
	// round-robin (useful in tests).
	RNG *sim.RNG
}

// Assign implements Balancer.
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

// ManualBalancer applies a fixed mapping, the vehicle for the paper's
// Manual-Homogeneous and Manual-Heterogeneous strategies (and for MeT's
// computed placements). Regions missing from the plan fall back to
// round-robin.
type ManualBalancer struct {
	Plan map[string]string
}

// Assign implements Balancer.
func (b *ManualBalancer) Assign(regions []string, servers []string) map[string]string {
	out := make(map[string]string, len(regions))
	if len(servers) == 0 {
		return out
	}
	i := 0
	sorted := append([]string(nil), regions...)
	sort.Strings(sorted)
	for _, r := range sorted {
		if s, ok := b.Plan[r]; ok {
			out[r] = s
			continue
		}
		out[r] = servers[i%len(servers)]
		i++
	}
	return out
}

// Master is the in-process cluster coordinator: the live RegionServer
// and Table objects clients route through, server membership, and
// balancing, beside the LayoutMaster that owns the layout those objects
// realize. Reads of the metadata (routing, membership, assignment) take
// a shared lock so the client hot path — Table, HostOf, Server on every
// operation — never serializes behind other readers; mutations take the
// exclusive lock. The layout has its own lock, never taken under mu.
type Master struct {
	mu sync.RWMutex

	namenode *hdfs.Namenode
	// layout owns the catalog rows, the split sequence, every commit,
	// follower placement and the failover loop (node.go, recovery.go).
	// Every layout mutation here changes the live objects, then commits
	// the table row built from them through it.
	layout  *LayoutMaster
	servers map[string]*RegionServer
	tables  map[string]*Table
	// creating reserves table names mid-CreateTable so two concurrent
	// creations of the same name cannot both pass the existence check;
	// addingServer does the same for AddServer, whose catalog commit
	// happens before the server becomes visible; snapshotting does the
	// same for Snapshot (keyed "table/name"), whose error path deletes
	// the shared archive directory and must never race a committer.
	creating     map[string]bool
	addingServer map[string]bool
	snapshotting map[string]bool
	// assignment maps region name -> server name.
	assignment map[string]string
	balancer   Balancer
	moves      int64
}

// NewMaster creates a master over the given namenode with the default
// randomized balancer and in-memory-only metadata (no catalog).
func NewMaster(nn *hdfs.Namenode) *Master {
	return newMaster(nn, newLayoutMaster(nil, nn.Replication()))
}

func newMaster(nn *hdfs.Namenode, layout *LayoutMaster) *Master {
	return &Master{
		namenode:     nn,
		layout:       layout,
		servers:      make(map[string]*RegionServer),
		tables:       make(map[string]*Table),
		creating:     make(map[string]bool),
		addingServer: make(map[string]bool),
		snapshotting: make(map[string]bool),
		assignment:   make(map[string]string),
		balancer:     &RandomBalancer{},
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

// commitTable commits t's current layout — built from the live objects
// under the layout lock — through the LayoutMaster: the atomic commit
// point of CreateTable, MoveRegion and SplitRegion.
func (m *Master) commitTable(t *Table) error {
	return m.layout.commitTable(t.Name(), func() tableRow {
		row := tableRow{SplitKeys: t.splitKeys}
		m.mu.RLock()
		defer m.mu.RUnlock()
		for _, r := range t.Regions() {
			row.Regions = append(row.Regions, regionRow{
				Name: r.Name(), Start: r.StartKey(), End: r.EndKey(),
				Server:    m.assignment[r.Name()],
				Followers: r.Followers(),
			})
		}
		return row
	})
}

// commitTableOf is commitTable by table name; unknown tables are a
// no-op (the region's table vanished under a racing operation).
func (m *Master) commitTableOf(name string) error {
	m.mu.RLock()
	t := m.tables[name]
	m.mu.RUnlock()
	if t == nil {
		return nil
	}
	return m.commitTable(t)
}

// landOn prepares r to be hosted on dst: a primary landing on one of
// its own followers degenerates the replica set (a copy co-located with
// the primary protects nothing), so the followers are re-picked before
// the destination starts shipping.
func (m *Master) landOn(r *Region, dst string) {
	if slices.Contains(r.Followers(), dst) {
		r.SetFollowers(m.layout.pickFollowers(dst, nil))
	}
}

// SetBalancer swaps the placement policy.
func (m *Master) SetBalancer(b Balancer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.balancer = b
}

// Namenode exposes the underlying HDFS metadata service.
func (m *Master) Namenode() *hdfs.Namenode { return m.namenode }

// AddServer registers a new region server with the cluster. With a
// catalog, the membership row is committed BEFORE the server becomes
// visible in the cluster: no region can ever be assigned (and durably
// committed) to a server whose own row might still fail to write, so
// the catalog never references an uncommitted server. A crash before
// the commit leaves the server cleanly absent after cold start; a crash
// after it cold-starts the server as an empty member.
func (m *Master) AddServer(name string, cfg ServerConfig) (*RegionServer, error) {
	m.mu.Lock()
	if _, ok := m.servers[name]; ok || m.addingServer[name] {
		m.mu.Unlock()
		return nil, fmt.Errorf("hbase: server %q already registered", name)
	}
	m.addingServer[name] = true
	rs, err := NewRegionServer(name, cfg, m.namenode)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.addingServer, name)
		m.mu.Unlock()
	}()
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

// DecommissionServer drains a server's regions onto the remaining servers
// (round-robin over least-loaded) and removes it from the cluster.
func (m *Master) DecommissionServer(name string) error {
	m.mu.Lock()
	rs, ok := m.servers[name]
	if !ok {
		m.mu.Unlock()
		return ErrUnknownServer
	}
	delete(m.servers, name)
	var targets []*RegionServer
	for _, s := range m.servers {
		targets = append(targets, s)
	}
	m.mu.Unlock()
	if len(targets) == 0 && rs.NumRegions() > 0 {
		m.mu.Lock()
		m.servers[name] = rs // restore; cannot strand regions
		m.mu.Unlock()
		return ErrNoServers
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Name() < targets[j].Name() })
	var errs []error
	for _, r := range rs.Regions() {
		// Least regions first keeps counts balanced.
		sort.SliceStable(targets, func(i, j int) bool { return targets[i].NumRegions() < targets[j].NumRegions() })
		dst := targets[0]
		rs.CloseRegion(r.Name())
		m.landOn(r, dst.Name())
		dst.OpenRegion(r)
		m.mu.Lock()
		m.assignment[r.Name()] = dst.Name()
		m.moves++
		m.mu.Unlock()
		// Each drained region commits its table's new layout; a crash
		// mid-drain cold-starts into the partially drained (consistent)
		// state, with this server still a member.
		if err := m.commitTableOf(r.Table()); err != nil {
			errs = append(errs, err)
		}
	}
	m.layout.crash("decommission.drained")
	rs.Shutdown() // stop serving and drain the compactor and replicator
	m.namenode.RemoveDatanode(name)
	// Regions elsewhere that replicated onto this server get new
	// followers; their old replica directories become orphans the next
	// cold start sweeps.
	if err := m.layout.removeServer(name, m.refollow); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
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

// CreateTable creates a table pre-split into the given regions.
// splitKeys must be sorted; n split keys produce n+1 regions.
//
// The name is reserved in one critical section — two concurrent
// CreateTable calls for the same name cannot interleave past the
// existence check; exactly one wins. A mid-loop failure (a region that
// cannot be opened) unwinds completely: every already-opened region is
// closed, its assignment deleted and its durable directory reclaimed,
// so a failed creation leaves no orphaned, unreachable regions. With a
// catalog, the table row — written only after every region is open — is
// the durable commit point: a crash before it leaves the table cleanly
// absent (its directories are swept at the next cold start).
func (m *Master) CreateTable(name string, splitKeys []string) (*Table, error) {
	m.mu.Lock()
	if _, ok := m.tables[name]; ok || m.creating[name] {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if len(m.servers) == 0 {
		m.mu.Unlock()
		return nil, ErrNoServers
	}
	for i := 1; i < len(splitKeys); i++ {
		if splitKeys[i] <= splitKeys[i-1] {
			m.mu.Unlock()
			return nil, fmt.Errorf("hbase: split keys not strictly sorted at %d", i)
		}
	}
	m.creating[name] = true
	serverNames := make([]string, 0, len(m.servers))
	for sn := range m.servers {
		serverNames = append(serverNames, sn)
	}
	sort.Strings(serverNames)
	balancer := m.balancer
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.creating, name)
		m.mu.Unlock()
	}()

	t := newTable(name, splitKeys)
	// Build the regions; store configs come from their first server, so
	// assign first, then create each region with its host's parameters.
	names := make([]string, 0, len(t.bounds))
	for _, b := range t.bounds {
		names = append(names, regionName(name, b.start))
	}
	plan := balancer.Assign(names, serverNames)

	var opened []*Region
	var hosts []string // of the regions opened so far: follower placement counts them
	unwind := func() {
		for _, r := range opened {
			m.mu.Lock()
			host := m.assignment[r.Name()]
			delete(m.assignment, r.Name())
			rs := m.servers[host]
			m.mu.Unlock()
			if rs == nil {
				r.Store().Close()
				continue
			}
			rs.CloseRegion(r.Name())
			discardRegionStore(rs, r)
		}
	}
	for _, b := range t.bounds {
		rn := regionName(name, b.start)
		host := plan[rn]
		rs, err := m.Server(host)
		if err != nil {
			unwind()
			return nil, err
		}
		r, err := NewRegion(name, b.start, b.end, rs.storeConfigFor(rn, rs.NumRegions()+1))
		if err != nil {
			unwind()
			return nil, fmt.Errorf("hbase: create table %q: %w", name, err)
		}
		r.SetFollowers(m.layout.pickFollowers(host, hosts))
		rs.OpenRegion(r)
		t.addRegion(r)
		m.mu.Lock()
		m.assignment[r.Name()] = host
		m.mu.Unlock()
		opened = append(opened, r)
		hosts = append(hosts, host)
	}
	m.layout.crash("createtable.regions-open")
	if err := m.commitTable(t); err != nil {
		unwind()
		return nil, err
	}
	m.mu.Lock()
	m.tables[name] = t
	m.mu.Unlock()
	return t, nil
}

// Table returns table metadata.
func (m *Master) Table(name string) (*Table, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tables[name]
	if !ok {
		return nil, ErrUnknownTable
	}
	return t, nil
}

// Tables returns all table names sorted.
func (m *Master) Tables() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.tables))
	for n := range m.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HostOf returns the server currently hosting a region.
func (m *Master) HostOf(regionName string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.assignment[regionName]
	return s, ok
}

// Assignment returns a copy of the full region -> server map.
func (m *Master) Assignment() map[string]string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]string, len(m.assignment))
	for k, v := range m.assignment {
		out[k] = v
	}
	return out
}

// MoveRegion transfers a region between servers. The region's HDFS files
// stay where they are, so the destination's locality index degrades until
// a major compaction — the central mechanism of Sections 2 and 5.
func (m *Master) MoveRegion(regionName, dstServer string) error {
	m.mu.Lock()
	src, ok := m.assignment[regionName]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("hbase: unknown region %q", regionName)
	}
	srcRS, okS := m.servers[src]
	dstRS, okD := m.servers[dstServer]
	m.mu.Unlock()
	if !okS {
		return fmt.Errorf("hbase: region %q host %q vanished", regionName, src)
	}
	if !okD {
		return ErrUnknownServer
	}
	if src == dstServer {
		return nil
	}
	r := srcRS.CloseRegion(regionName)
	if r == nil {
		return fmt.Errorf("hbase: region %q not open on %q", regionName, src)
	}
	m.landOn(r, dstServer)
	dstRS.OpenRegion(r)
	m.mu.Lock()
	m.assignment[regionName] = dstServer
	m.moves++
	m.mu.Unlock()
	m.layout.crash("moveregion.moved")
	// Commit the table's new layout. A crash before this write
	// cold-starts the region on its old host — correct either way,
	// because region data directories are keyed by region name, not
	// server. On a catalog I/O error the in-memory move stands (the
	// cluster keeps serving); the layout re-commits with the table's
	// next successful layout change.
	return m.commitTableOf(r.Table())
}

// Moves returns the cumulative number of region moves, an actuation-cost
// metric the Output Computation stage minimizes.
func (m *Master) Moves() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.moves
}

// Rebalance re-runs the current balancer over all regions and applies the
// resulting moves. It returns the number of regions moved.
func (m *Master) Rebalance() (int, error) {
	m.mu.Lock()
	var regions []string
	for r := range m.assignment {
		regions = append(regions, r)
	}
	servers := make([]string, 0, len(m.servers))
	for s := range m.servers {
		servers = append(servers, s)
	}
	sort.Strings(regions)
	sort.Strings(servers)
	plan := m.balancer.Assign(regions, servers)
	m.mu.Unlock()
	if len(servers) == 0 {
		return 0, ErrNoServers
	}
	moved := 0
	for _, r := range regions {
		dst := plan[r]
		cur, _ := m.HostOf(r)
		if dst != "" && dst != cur {
			if err := m.MoveRegion(r, dst); err != nil {
				return moved, err
			}
			moved++
		}
	}
	return moved, nil
}

func regionName(table, startKey string) string {
	return fmt.Sprintf("%s,%s", table, startKey)
}
