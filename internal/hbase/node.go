package hbase

// The layout owner and the node surface.
//
// One type owns the cluster layout — LayoutMaster: the catalog rows
// (membership, one row per table, the split sequence), the route table
// each commit publishes as the next routing epoch, every commit
// function, follower placement, replica election and the failover loop.
// Whoever runs the region servers builds on it:
//
//   - In one process, Master (master.go) runs the live RegionServers
//     and nothing else: each layout verb does its region-server work
//     with direct calls, then makes one row edit on its LayoutMaster,
//     and in-process clients route from the route table that edit
//     published.
//   - Across processes (met/internal/rpc, cmd/metnode), the master
//     process serves a LayoutMaster as is and holds no region store:
//     the META store is itself a durable kv.Store with a WAL, so
//     exactly one process may open it. Each worker process opens the
//     manifest the master hands it with OpenServerNode and owns its
//     shared WAL and region stores exclusively (directories are keyed
//     by server and region name, so workers never collide on disk).
//
// Both run the same code for the three things a layout owner does to
// region servers. Cold start: OpenCluster loads the catalog through
// OpenLayoutMaster and opens every member through OpenServerNode's
// per-manifest open (openServer). Follower placement:
// pickFollowersLocked, from hosted-region counts in the layout alone.
// Failover: LayoutMaster.RecoverServer (recovery.go) plans, adopts and
// commits one dead region at a time, handed the two steps that touch a
// region server — adopt and refollow — as functions: direct
// RegionServer.AdoptRegion/Refollow calls from Master.RecoverServer,
// POST /node/adopt|refollow from rpc.MasterNode.
//
// Only loss accounting differs, by necessity: a real process kill takes
// the dead server's in-memory clocks with it. AdoptionReport carries
// RecoveredTS (the adopted store's clock — dense, one tick per
// mutation); Master.RecoverServer subtracts it from the dead store
// object's clock, a networked caller measures loss against what it saw
// acknowledged (how the metbench failover gate does its accounting).

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"met/internal/durable"
	"met/internal/hdfs"
	"met/internal/replication"
)

// LayoutRegion is one region's row in the layout a LayoutMaster serves:
// everything a client needs to route (bounds, host) and everything a
// worker needs to open it (name, table, followers).
type LayoutRegion struct {
	Name      string   `json:"name"`
	Table     string   `json:"table"`
	Start     string   `json:"start"`
	End       string   `json:"end,omitempty"`
	Server    string   `json:"server"`
	Followers []string `json:"followers,omitempty"`
}

// NodeManifest is what a worker needs to open its slice of the cluster.
type NodeManifest struct {
	Server      string         `json:"server"`
	Config      ServerConfig   `json:"config"`
	Replication int            `json:"replication"`
	Regions     []LayoutRegion `json:"regions"`
	Epoch       int64          `json:"epoch"`
}

// AdoptSpec tells a worker to fail a dead region over onto itself.
type AdoptSpec struct {
	// Region is the dead region's name; NewRegion the gen-suffixed name
	// it is recovered under (minted after a durable split-sequence bump,
	// so a replayed recovery cannot collide).
	Region    string `json:"region"`
	NewRegion string `json:"new_region"`
	Table     string `json:"table"`
	Start     string `json:"start"`
	End       string `json:"end,omitempty"`
	// Source is the worker that should adopt (it holds the best
	// replica). ReplicaDir is that replica's directory on the shared
	// disk; empty means no copy survived and the region starts empty
	// (the loss is the whole region, and the caller's accounting will
	// say so).
	Source     string   `json:"source"`
	ReplicaDir string   `json:"replica_dir,omitempty"`
	Followers  []string `json:"followers,omitempty"`
}

// AdoptionReport is the worker's account of one AdoptRegion.
type AdoptionReport struct {
	NewRegion    string `json:"new_region"`
	ReplicaFiles int    `json:"replica_files"`
	TailWrites   int    `json:"tail_writes"`
	TailTorn     bool   `json:"tail_torn,omitempty"`
	// RecoveredTS is the adopted store's logical clock — timestamps are
	// minted densely, so the caller can measure loss against the count
	// of writes it saw acknowledged.
	RecoveredTS uint64 `json:"recovered_ts"`
}

// FollowerUpdate directs a region's hosting server to repoint its
// replica targets after a member left (LayoutMaster.removeServer).
type FollowerUpdate struct {
	Region    string   `json:"region"`
	Server    string   `json:"server"`
	Followers []string `json:"followers"`
}

// RecoveredRegion pairs one region's recovery plan with the adopting
// server's account of carrying it out.
type RecoveredRegion struct {
	Spec   AdoptSpec      `json:"spec"`
	Report AdoptionReport `json:"report"`
}

// LayoutMaster owns the cluster layout: the catalog rows (membership,
// table rows, split sequence), the route table published from them, and
// every decision derived from them — follower placement, replica
// election, failover. It holds no region store. A networked master
// process serves it as is (rpc.MasterNode); the in-process Master runs
// its region servers with direct calls and routes from it. Without a
// catalog (NewMaster's in-memory clusters, or after Close) commits
// update the in-memory layout only.
type LayoutMaster struct {
	mu          sync.Mutex
	cat         *catalog
	replication int
	splitSeq    int64
	servers     map[string]ServerConfig
	// tables holds every table's committed row, each listing its
	// regions in key order; a row is replaced whole, never edited in
	// place.
	tables map[string]*tableRow
	// routes is the route table published from tables at the last
	// commit: the routing epoch and everything readers route by.
	routes atomic.Pointer[RouteTable]
	// recovering marks members with a failover in flight: one recovery
	// per server at a time, and neither follower placement nor replica
	// election may choose a server that is being recovered away.
	recovering map[string]bool

	// crashHook, when non-nil, is invoked at named crash points inside
	// mutating operations — tests use it to simulate a hard process
	// kill between a catalog write and the region work it describes.
	crashHook func(point string) //lint:allow deadfield test fault hook: crashAt sets it
}

func newLayoutMaster(cat *catalog, replication int) *LayoutMaster {
	lm := &LayoutMaster{
		cat:         cat,
		replication: replication,
		servers:     make(map[string]ServerConfig),
		tables:      make(map[string]*tableRow),
		recovering:  make(map[string]bool),
	}
	lm.routes.Store(newRouteTable(1, lm.tables))
	return lm
}

// OpenLayoutMaster opens the cluster catalog under dataDir exclusively
// and loads the committed layout: the one loader behind a master
// process and OpenCluster. No region store is opened; workers own
// those.
func OpenLayoutMaster(dataDir string) (*LayoutMaster, error) {
	// Refuse before creating anything: opening the catalog would mint a
	// fresh (empty) meta directory, silently "recovering" a zero-server
	// cluster from a typo'd path.
	if _, err := os.Stat(catalogDir(dataDir)); err != nil {
		return nil, fmt.Errorf("hbase: open %q: no META catalog: %w", dataDir, err)
	}
	cat, err := openCatalog(dataDir)
	if err != nil {
		return nil, err
	}
	st, err := cat.loadAll()
	if err != nil {
		cat.close()
		return nil, err
	}
	if len(st.servers) == 0 {
		// A catalog with no committed membership is not a recoverable
		// cluster (at most a cluster row from a creation that died before
		// its first AddServer commit).
		cat.close()
		return nil, fmt.Errorf("hbase: open %q: catalog holds no committed servers", dataDir)
	}
	lm := newLayoutMaster(cat, st.cluster.Replication)
	lm.splitSeq = st.cluster.SplitSeq
	for name, row := range st.servers {
		lm.servers[name] = row.Config
	}
	for name, row := range st.tables {
		lm.tables[name] = &row
	}
	lm.routes.Store(newRouteTable(1, lm.tables))
	return lm, nil
}

// Close releases the catalog store. Every commit was fsynced when it
// was acknowledged, so closing changes nothing about what the next
// owner of the data directory recovers.
func (lm *LayoutMaster) Close() {
	lm.mu.Lock()
	cat := lm.cat
	lm.cat = nil
	lm.mu.Unlock()
	if cat != nil {
		cat.close()
	}
}

// crash fires the test-only crash hook. Never called under lm.mu: the
// hook simulates a kill by unwinding the caller.
func (lm *LayoutMaster) crash(point string) {
	if lm.crashHook != nil {
		lm.crashHook(point)
	}
}

// Epoch returns the current routing epoch. It advances on every layout
// change; a client carrying an older epoch is routing on a stale
// layout and must re-fetch.
func (lm *LayoutMaster) Epoch() int64 { return lm.routes.Load().epoch }

// Replication returns the cluster's committed replication factor.
func (lm *LayoutMaster) Replication() int { return lm.replication }

// ServerNames lists the committed membership, sorted.
func (lm *LayoutMaster) ServerNames() []string {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	names := make([]string, 0, len(lm.servers))
	for n := range lm.servers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Layout returns the routing epoch and the complete region layout, from
// the published route table: by table name, then key order. The
// follower slices are shared with the route table and must not be
// modified.
func (lm *LayoutMaster) Layout() (int64, []LayoutRegion) {
	rt := lm.routes.Load()
	return rt.epoch, rt.Regions()
}

// Manifest builds the open-time manifest for one worker.
func (lm *LayoutMaster) Manifest(server string) (NodeManifest, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	cfg, ok := lm.servers[server]
	if !ok {
		return NodeManifest{}, fmt.Errorf("hbase: manifest: unknown server %q", server)
	}
	rt := lm.routes.Load()
	man := NodeManifest{Server: server, Config: cfg, Replication: lm.replication, Epoch: rt.epoch}
	for _, r := range rt.regions {
		if r.Server == server {
			man.Regions = append(man.Regions, r)
		}
	}
	return man, nil
}

// membersByLoadLocked lists the members other than host that are not
// being recovered away, fewest hosted regions first, ties by name. It
// is the one ordering follower placement and the no-replica-survived
// election fallback share, derived from the layout alone. inflight
// names the hosts of regions placed but not yet committed (a table
// still being created), which count as hosted. Callers hold lm.mu.
func (lm *LayoutMaster) membersByLoadLocked(host string, inflight []string) []string {
	counts := make(map[string]int, len(lm.servers))
	for _, t := range lm.tables {
		for _, rr := range t.Regions {
			counts[rr.Server]++
		}
	}
	for _, h := range inflight {
		counts[h]++
	}
	cands := make([]string, 0, len(lm.servers))
	for n := range lm.servers {
		if n != host && !lm.recovering[n] {
			cands = append(cands, n)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if counts[cands[i]] != counts[cands[j]] {
			return counts[cands[i]] < counts[cands[j]]
		}
		return cands[i] < cands[j]
	})
	return cands
}

// pickFollowersLocked chooses the servers that hold replica copies of a
// region hosted on host: replication−1 of membersByLoadLocked, never
// the primary itself. A follower picked here is where the region
// reopens after its primary dies. Callers hold lm.mu.
func (lm *LayoutMaster) pickFollowersLocked(host string, inflight []string) []string {
	cands := lm.membersByLoadLocked(host, inflight)
	if want := max(lm.replication-1, 0); want < len(cands) {
		cands = cands[:want]
	}
	return cands
}

// pickFollowers is pickFollowersLocked for callers outside the lock.
func (lm *LayoutMaster) pickFollowers(host string, inflight []string) []string {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.pickFollowersLocked(host, inflight)
}

// persistLocked stamps row with the next catalog revision and durably
// writes it under key; a no-op without a catalog. Callers hold lm.mu.
func (lm *LayoutMaster) persistLocked(key string, rev *uint64, row any) error {
	if lm.cat == nil {
		return nil
	}
	return lm.cat.put(key, rev, row)
}

// commitClusterLocked persists the singleton cluster row (replication
// factor, split sequence). Callers hold lm.mu.
func (lm *LayoutMaster) commitClusterLocked() error {
	row := clusterRow{Replication: lm.replication, SplitSeq: lm.splitSeq}
	return lm.persistLocked(catalogClusterKey, &row.Rev, &row)
}

// nextGen bumps the split sequence and persists it before the caller
// creates anything named after it: a split or recovery replayed after
// a crash can never mint region names — and therefore data directories
// — that collide with the first attempt's leftovers. A failure merely
// skips a generation number.
func (lm *LayoutMaster) nextGen() (int64, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.splitSeq++
	return lm.splitSeq, lm.commitClusterLocked()
}

// commitServer persists one server's membership row and admits it.
func (lm *LayoutMaster) commitServer(name string, cfg ServerConfig) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	row := serverRow{Config: cfg}
	if err := lm.persistLocked(catalogServerPfx+name, &row.Rev, &row); err != nil {
		return err
	}
	lm.servers[name] = cfg
	return nil
}

// putTableLocked persists one table's complete layout — bounds, host
// and followers of every region, in key order — as one durable row
// write, the atomic commit point of every layout change, then installs
// it and publishes the next epoch's route table. On a catalog error
// nothing is installed: the layout stays what the catalog holds.
// Callers hold lm.mu.
func (lm *LayoutMaster) putTableLocked(name string, row tableRow) error {
	if err := lm.persistLocked(catalogTablePfx+name, &row.Rev, &row); err != nil {
		return err
	}
	lm.tables[name] = &row
	lm.routes.Store(newRouteTable(lm.routes.Load().epoch+1, lm.tables))
	return nil
}

// putTable commits a whole new row for a table: CreateTable's one row
// edit.
func (lm *LayoutMaster) putTable(name string, row tableRow) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.putTableLocked(name, row)
}

// replaceRegion commits the one row edit of a move, a split or a
// failover: the region called old, in its table's row, is replaced by
// with — one row for a move or an adoption, both daughters in key order
// for a split. It fails, changing nothing, when the row no longer names
// old (a racing operation replaced it).
func (lm *LayoutMaster) replaceRegion(table, old string, with ...regionRow) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	cur := lm.tables[table]
	if cur == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	i := slices.IndexFunc(cur.Regions, func(rr regionRow) bool { return rr.Name == old })
	if i < 0 {
		return fmt.Errorf("hbase: region %q is no longer in table %q", old, table)
	}
	row := *cur
	row.Regions = slices.Concat(cur.Regions[:i], with, cur.Regions[i+1:])
	return lm.putTableLocked(table, row)
}

// removeServer ends a member's life, decommissioned or failed over: its
// membership row is tombstoned, its shared WAL directory reclaimed
// (every region it logged for has flushed onto another server's log, or
// was recovered from replica copies and never read it), and every
// region elsewhere that shipped replicas to it gets a fresh follower
// set — committed per table, then handed to refollow so the hosting
// server repoints its replicator. Without that, regions would keep
// shipping to, and a later recovery would look for copies on, a server
// that no longer exists.
func (lm *LayoutMaster) removeServer(name string, refollow func(FollowerUpdate)) error {
	lm.mu.Lock()
	cfg := lm.servers[name]
	if lm.cat != nil {
		if err := lm.cat.delete(catalogServerPfx + name); err != nil {
			lm.mu.Unlock()
			return err
		}
	}
	delete(lm.servers, name)
	if cfg.DataDir != "" {
		_ = os.RemoveAll(ServerWALDir(cfg.DataDir, name))
	}
	var updates []FollowerUpdate
	var errs []error
	for tn, cur := range lm.tables {
		row := *cur
		row.Regions = slices.Clone(cur.Regions)
		var changed []FollowerUpdate
		for i := range row.Regions {
			if rr := &row.Regions[i]; slices.Contains(rr.Followers, name) {
				rr.Followers = lm.pickFollowersLocked(rr.Server, nil)
				changed = append(changed, FollowerUpdate{Region: rr.Name, Server: rr.Server, Followers: rr.Followers})
			}
		}
		if len(changed) == 0 {
			continue
		}
		if err := lm.putTableLocked(tn, row); err != nil {
			errs = append(errs, err)
			continue
		}
		updates = append(updates, changed...)
	}
	lm.mu.Unlock()
	for _, up := range updates {
		refollow(up)
	}
	return errors.Join(errs...)
}

// OpenServerNode opens one server's slice of a cluster in this process:
// the worker half of a multi-process cold start.
func OpenServerNode(man NodeManifest) (*RegionServer, error) {
	return openServer(man, hdfs.NewNamenode(man.Replication))
}

// openServer is the per-server half of every cold start — a worker
// process opening its manifest, or OpenCluster opening each member over
// one shared namenode: reopen the shared WAL, reopen every assigned
// region's store from its directory (WAL replay recovers every
// acknowledged write), wire replication to the committed follower set
// (files already shipped are recognized, not re-copied), rebuild the
// locality mirror, then reclaim the log records of regions that moved
// away before the stop — they will never re-register here, and would
// otherwise pin the log's old segments and sit in its shippable tail.
// Neither the catalog nor any other server's directories are touched.
func openServer(man NodeManifest, nn *hdfs.Namenode) (*RegionServer, error) {
	rs, err := NewRegionServer(man.Server, man.Config, nn)
	if err != nil {
		return nil, err
	}
	regions := append([]LayoutRegion(nil), man.Regions...)
	sort.Slice(regions, func(i, j int) bool { return regions[i].Name < regions[j].Name })
	for i, lr := range regions {
		r, err := newRegionNamed(lr.Name, lr.Table, lr.Start, lr.End,
			rs.storeConfigFor(lr.Name, i+1))
		if err != nil {
			closeServer(rs)
			return nil, fmt.Errorf("hbase: open server %s: %w", man.Server, err)
		}
		r.SetFollowers(lr.Followers)
		rs.OpenRegion(r)
	}
	if _, err := rs.ReclaimOrphanWALRecords(); err != nil {
		closeServer(rs)
		return nil, fmt.Errorf("hbase: open server %s: reclaim orphan wal records: %w", man.Server, err)
	}
	return rs, nil
}

// closeServer abandons a server opened by openServer: its stores are
// closed (not flushed — the WAL holds everything acknowledged) and the
// server shut down.
func closeServer(rs *RegionServer) {
	for _, r := range rs.Regions() {
		r.Store().Close()
	}
	rs.Shutdown()
}

// AdoptRegion fails a dead region over onto this server — the adopt
// step of LayoutMaster.RecoverServer, whether called directly or behind
// POST /node/adopt. The new region directory is seeded exclusively from
// the replica copy (the dead primary directory is never read: it stands
// in for a lost disk), the shipped WAL tail is replayed over it — the
// records the dead server's memstore held but tail streaming had made
// follower-durable; records the files already cover are skipped, a torn
// trailing frame yields the intact prefix — and the region opens for
// serving. The layout master commits the table row afterwards; a crash
// in between leaves an orphan directory a future cold start sweeps, and
// a re-run replays the tail again, idempotently, under a fresh name.
func (s *RegionServer) AdoptRegion(spec AdoptSpec) (AdoptionReport, error) {
	var rep AdoptionReport
	rep.NewRegion = spec.NewRegion
	var ids []uint64
	if spec.ReplicaDir != "" {
		var err error
		if ids, err = replication.ListSSTables(spec.ReplicaDir); err != nil {
			return rep, err
		}
	}
	if err := seedRegionDir(RegionDataDir(s.Config().DataDir, spec.NewRegion), spec.ReplicaDir, ids); err != nil {
		return rep, err
	}
	rep.ReplicaFiles = len(ids)
	nr, err := newRegionNamed(spec.NewRegion, spec.Table, spec.Start, spec.End,
		s.storeConfigFor(spec.NewRegion, s.NumRegions()+1))
	if err != nil {
		return rep, err
	}
	if spec.ReplicaDir != "" {
		tail, torn, err := durable.ReadTail(spec.ReplicaDir)
		if err != nil {
			discardRegionStore(s, nr)
			return rep, fmt.Errorf("read replica tail: %w", err)
		}
		rep.TailTorn = torn
		if len(tail) > 0 {
			applied, err := nr.Store().ApplyReplayed(tail)
			if err != nil {
				discardRegionStore(s, nr)
				return rep, fmt.Errorf("replay replica tail: %w", err)
			}
			rep.TailWrites = applied
		}
	}
	rep.RecoveredTS = nr.Store().MaxTimestamp()
	nr.SetFollowers(spec.Followers)
	s.OpenRegion(nr)
	return rep, nil
}

// seedRegionDir creates a fresh region directory holding copies of the
// SSTables ids of src — a replica copy (failover) — for the region's
// store to open like any cold store.
func seedRegionDir(dir, src string, ids []uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := replication.CopyFile(replication.SSTablePath(src, id), replication.SSTablePath(dir, id)); err != nil {
			return err
		}
	}
	return nil
}

// Refollow applies a FollowerUpdate to a hosted region: the hosting
// server's side of LayoutMaster.removeServer's follower re-pick. The
// replication nudge makes the next reconciliation ship to the new
// target set.
func (s *RegionServer) Refollow(up FollowerUpdate) error {
	r := s.region(up.Region)
	if r == nil {
		return fmt.Errorf("%w: %s", ErrWrongRegionServer, up.Region)
	}
	r.SetFollowers(up.Followers)
	s.notifyReplication(up.Region)
	return nil
}
