package hbase

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"met/internal/compaction"
	"met/internal/durable"
	"met/internal/hdfs"
	"met/internal/kv"
	"met/internal/metrics"
	"met/internal/obs"
	"met/internal/replication"
)

// Common region server errors.
var (
	// ErrWrongRegionServer is returned when a key's region is not
	// hosted here (the client then refreshes its routing).
	ErrWrongRegionServer = errors.New("hbase: region not hosted on this server")
	// ErrServerStopped is returned while a server is down (e.g. during
	// a reconfiguration restart).
	ErrServerStopped = errors.New("hbase: region server stopped")
)

// RegionServer hosts a set of regions, applies one ServerConfig to all of
// them, and is co-located with an HDFS datanode of the same name.
//
// Concurrency model: mu is a reader/writer lock over the server's
// topology (the hosted-region map and its per-table sorted routing
// index, cfg, cache, running, restarts). The serving hot path —
// Get/Put/Delete/Scan — takes only the read lock, for just long enough
// to route the key through the sorted index; the data operation itself
// runs against the region's store, which has its own reader/writer
// lock. Region open/close, restarts and rebalances take the write lock.
// Request counters are atomics (metrics.AtomicCounts), so monitoring
// never perturbs serving. Lock ordering is RegionServer.mu before
// Region.mu before kv locks; no callee ever takes a RegionServer lock,
// so the order cannot invert.
type RegionServer struct {
	mu sync.RWMutex

	name     string
	cfg      ServerConfig
	namenode *hdfs.Namenode
	regions  map[string]*Region
	// index routes lookups: per table, the hosted regions sorted by
	// start key for binary search. Rebuilt on every open/close.
	index    map[string][]*Region
	cache    *kv.BlockCache // shared across the server's regions
	requests metrics.AtomicCounts
	running  bool
	restarts int
	started  time.Time // creation, the start of a first Stats period

	// compactor is the server-wide background compaction pool shared by
	// every hosted region's store (HBase's per-server compaction
	// threads). Nil only after Shutdown.
	compactor *compaction.Pool

	// replicator ships every hosted region's SSTables to its followers'
	// replica directories (met/internal/replication), charging the
	// compactor pool's I/O budget as background bytes. Nil on the
	// in-memory backend (no DataDir: nothing shippable).
	replicator *replication.Replicator

	// wal is the server's shared group-commit log (HBase's
	// one-WAL-per-RegionServer design): every hosted region appends
	// through a region-scoped handle, so N regions share one fsync
	// stream. With a replicator the log retains its synced-but-unflushed
	// tail (durable.Options.KeepTail) and announces commit rounds
	// (OnSynced), which is what lets the tail shipper append a hot
	// memstore's acknowledged writes to followers. Nil on the in-memory
	// backend.
	wal *durable.WAL

	// shut keeps the replicator and log that Shutdown closed, for the
	// stats getters alone (statLayers): a shut-down member's counters
	// hold their last values until RecoverServer or a decommission
	// removes it.
	shut struct {
		replicator *replication.Replicator
		wal        *durable.WAL
	}

	// tel is the server's observability state: always-on lock-free
	// latency histograms per op class, and the slow-op trace machinery
	// armed by ServerConfig.SlowOpThreshold (see telemetry.go).
	tel serverTelemetry
}

// NewRegionServer creates a running server and registers its co-located
// datanode with the namenode.
func NewRegionServer(name string, cfg ServerConfig, nn *hdfs.Namenode) (*RegionServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nn.AddDatanode(name)
	s := &RegionServer{
		name:     name,
		cfg:      cfg,
		namenode: nn,
		regions:  make(map[string]*Region),
		index:    make(map[string][]*Region),
		cache:    kv.NewBlockCache(int(cfg.BlockCacheBytes())),
		running:  true,
		started:  time.Now(),
	}
	s.tel.slowLog = obs.NewSlowLog(obs.DefaultSlowLogSize)
	s.tel.setConfig(cfg)
	s.compactor = newCompactorPool(cfg.Compaction, &s.tel.compaction)
	if cfg.DataDir != "" {
		// The in-memory backend exports no files: only a durable server
		// ships, its SSTable copies charged to the pool's budget.
		s.replicator = replication.New(s.compactor.Budget())
		w, err := durable.OpenWAL(ServerWALDir(cfg.DataDir, name), s.walOptions())
		if err != nil {
			s.compactor.Close()
			s.replicator.Close()
			nn.RemoveDatanode(name)
			return nil, fmt.Errorf("hbase: open server wal for %s: %w", name, err)
		}
		s.wal = w
	}
	return s, nil
}

// ServerWALDir is the shared log's directory: keyed by server — unlike
// region directories — because the log IS the server's (one fsync
// stream for all its regions). RecoverServer reclaims it when the
// server dies; a cold start reopens it and replays the unflushed tail.
// The metbench failover gate renames a killed server's aside, proving
// the recovered tail comes from the shipped replica copies.
func ServerWALDir(dataDir, server string) string {
	return filepath.Join(dataDir, "wal", url.PathEscape(server))
}

// walOptions derives the shared log's options from the server's pool
// and replicator while s is being constructed. The OnSynced hook runs
// off the log's locks after each successful fsync round; it hands the
// round's regions to the replicator's tail shipper, which appends their
// freshly durable records to the followers without waiting for a flush
// or the reconcile queue.
func (s *RegionServer) walOptions() durable.Options {
	opts := durable.Options{KeepTail: s.replicator != nil}
	if s.compactor != nil {
		opts.Account = s.compactor.Budget().NoteForeground
	}
	opts.OnSynced = func(regions map[string]bool) {
		s.mu.RLock()
		rep := s.replicator
		s.mu.RUnlock()
		if rep != nil {
			rep.TailSynced(regions)
		}
	}
	return opts
}

// replicaDir is the directory follower keeps its copy of a region's
// SSTables in, under the shared cluster data root — the single-process
// stand-in for the follower's local disk.
func replicaDir(dataDir, follower, regionName string) string {
	return filepath.Join(dataDir, "replica", url.PathEscape(follower), url.PathEscape(regionName))
}

// newCompactorPool builds the server-wide pool from the configured
// knobs, counting into the server's ctr.
func newCompactorPool(cc CompactionConfig, ctr *compaction.Counters) *compaction.Pool {
	return compaction.NewPool(compaction.Config{
		Workers:           cc.Workers,
		BudgetBytesPerSec: cc.BudgetBytesPerSec,
		Policy:            compaction.NewPolicy(cc.Policy),
		MaxStoreFiles:     cc.MaxStoreFiles,
		Counters:          ctr,
	})
}

// Name returns the server's identity (also its datanode name).
func (s *RegionServer) Name() string { return s.name }

// Config returns the active configuration.
func (s *RegionServer) Config() ServerConfig {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg
}

// Running reports whether the server is serving requests.
func (s *RegionServer) Running() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.running
}

// Restarts counts configuration restarts, an actuation-cost metric.
func (s *RegionServer) Restarts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.restarts
}

// RegionDataDir maps a region name to its on-disk directory under the
// cluster data root. The directory is keyed by region name only — not by
// server — so a region keeps its files when it moves between servers
// (the single-process deployment shares the data root, as HDFS would).
// Region names may contain arbitrary key bytes; path-escaping keeps the
// mapping injective and filesystem-safe. The metbench failover gate
// renames a killed server's aside, proving recovery reads replica
// copies only.
func RegionDataDir(dataDir, regionName string) string {
	return filepath.Join(dataDir, "regions", url.PathEscape(regionName))
}

// discardRegionStore closes r's store and reclaims its durable
// directory: the shared teardown for regions abandoned mid-operation —
// a failed CreateTable's unwind, a failed split's half-created
// daughters, and a committed split's superseded parent.
func discardRegionStore(rs *RegionServer, r *Region) {
	st := r.Store()
	h, _ := st.WAL().(*durable.RegionLog)
	st.Close()
	if h != nil {
		// A durable drop marker voids the region's records in its shared
		// log: without it, a log segment the abandoned region pinned
		// would replay those records into any future region re-minted
		// under the same name.
		_ = h.Owner().Drop(h.Name())
	}
	if dd := rs.Config().DataDir; dd != "" {
		_ = os.RemoveAll(RegionDataDir(dd, r.Name()))
	}
}

// storeConfigFor derives the kv engine config for one region hosted
// here. The server's memstore budget is split across its regions (HBase
// bounds the global memstore similarly); the block cache is shared. When
// the server has a data directory, the config carries the durable
// backend factory for the region's own directory; otherwise the store
// is in-memory and does not log.
func (s *RegionServer) storeConfigFor(regionName string, numRegions int) kv.Config {
	if numRegions < 1 {
		numRegions = 1
	}
	host := s.hostFor(regionName)
	s.mu.RLock()
	defer s.mu.RUnlock()
	cfg := kv.Config{
		MemstoreFlushBytes: int(s.cfg.MemstoreBytes()) / numRegions,
		BlockBytes:         s.cfg.BlockBytes,
		Cache:              s.cache,
		Seed:               uint64(len(s.name)) + uint64(numRegions),
		MaxStoreFiles:      s.cfg.Compaction.MaxStoreFiles,
		Host:               host,
	}
	var opts durable.Options
	if s.compactor != nil {
		// The durable backend accounts its foreground bytes into the
		// budget the store's compactions share with the pool.
		opts.Account = s.compactor.Budget().NoteForeground
	}
	if s.cfg.DataDir != "" {
		if s.wal != nil {
			// One log per server: the store appends through a
			// region-scoped handle on the shared WAL instead of opening a
			// private log in its region directory.
			cfg.WAL = s.wal.Region(regionName)
			opts.ExternalWAL = true
		}
		cfg.OpenBackend = durable.Opener(RegionDataDir(s.cfg.DataDir, regionName), opts)
	}
	return cfg
}

// hostFor is the kv.Host of region name's store while it is hosted
// here: the server's compaction pool, I/O budget and stall ceiling —
// none after Shutdown, when the store compacts on its own writers — the
// server's engine counters, and the files-changed hook that mirrors and
// ships the store's stack. The hook is keyed by name, so it survives
// store swaps.
func (s *RegionServer) hostFor(name string) kv.Host {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := kv.Host{Counters: &s.tel.engine, OnFilesChanged: func() { s.filesChanged(name) }}
	if s.compactor != nil {
		h.Compactor, h.Budget, h.HardMaxStoreFiles = s.compactor, s.compactor.Budget(), s.cfg.Compaction.StallStoreFiles
	}
	return h
}

// rebuildIndexLocked recomputes the per-table sorted routing index from
// the hosted-region map. Callers must hold the write lock. Open/close is
// rare next to lookups, so paying O(n log n) here to make every lookup
// O(log n) under a shared lock is the right trade.
func (s *RegionServer) rebuildIndexLocked() {
	idx := make(map[string][]*Region, len(s.index))
	for _, r := range s.regions {
		idx[r.Table()] = append(idx[r.Table()], r)
	}
	for _, regions := range idx {
		sort.Slice(regions, func(i, j int) bool { return regions[i].StartKey() < regions[j].StartKey() })
	}
	s.index = idx
}

// OpenRegion starts hosting a region. The region's store keeps its data;
// only bookkeeping changes hands — plus the store's host: a store
// arriving from another server is still that server's, and without the
// move it would keep being compacted, charged and counted there, and
// mirrored and shipped by it, until its next reopen.
func (s *RegionServer) OpenRegion(r *Region) {
	// The store (and its engine file IDs) travels with the region, so
	// existing mirror bookkeeping stays valid.
	r.resetMirror(r.Store(), true)
	name := r.Name()
	r.Store().SetHost(s.hostFor(name))
	s.adoptWAL(r)
	s.trackReplication(r)
	s.mu.Lock()
	s.regions[name] = r
	s.rebuildIndexLocked()
	s.mu.Unlock()
	// Catch up the mirror and the followers on whatever the store
	// already holds (a moved region's files, a cold-started region's
	// recovered stack).
	s.filesChanged(name)
}

// adoptWAL re-homes a moved region's logging onto this server's shared
// WAL. A store arriving from another server (MoveRegion, a
// decommission drain) is still wired to that server's log; left alone
// it would keep appending into — and its flushes truncating — a log
// whose lifetime it no longer shares. SwitchWAL flushes the memstore
// first, so every record the old log held for this store is durable in
// an SSTable (and truncated away there) before appends land here.
func (s *RegionServer) adoptWAL(r *Region) {
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	if w == nil {
		return
	}
	st := r.Store()
	h, ok := st.WAL().(*durable.RegionLog)
	if !ok || h.Owner() == w {
		// Already ours, or an in-memory store (no log at all).
		return
	}
	_ = st.SwitchWAL(w.Region(r.Name()))
}

// trackReplication registers a region with this server's replicator.
// The closures read the region's current store and follower set on
// every reconciliation, so restarts (store swaps) and follower re-picks
// need no re-registration.
func (s *RegionServer) trackReplication(r *Region) {
	s.mu.RLock()
	rep := s.replicator
	dataDir := s.cfg.DataDir
	w := s.wal
	s.mu.RUnlock()
	if rep == nil {
		return
	}
	name := r.Name()
	rep.Track(name,
		func() ([]kv.ExportedFile, bool) { return r.Store().ExportFiles() },
		func() []string { return r.replicaDirs(dataDir) },
		// Tail streaming: followers also hold the region's
		// durable-but-unflushed records from the server's shared log
		// (there is one whenever there is a replicator), so a failover
		// loses at most the records no tail append reached yet.
		func(from, to uint64) ([]kv.Entry, uint64) { return w.TailFrom(name, from, to) })
}

// filesChanged is the one subscriber to a hosted store's file stack
// (kv.Host.OnFilesChanged): whenever a flush adds a file or a
// compaction — background, self-service or major — splices one in, the
// HDFS locality mirror reconciles and the replicator ships the new
// SSTable and retires the compacted-away ones from the followers. Both
// reconcile against the current stack, so coalesced or repeated calls
// are harmless. A region this server no longer (or does not yet) host
// is skipped; whoever opens it catches up.
func (s *RegionServer) filesChanged(regionName string) {
	if r := s.region(regionName); r != nil {
		s.mirrorSync(r)
	}
	s.notifyReplication(regionName)
}

// notifyReplication enqueues a hosted region for replica
// reconciliation; a no-op without a replicator.
func (s *RegionServer) notifyReplication(region string) {
	s.mu.RLock()
	rep := s.replicator
	s.mu.RUnlock()
	if rep != nil {
		rep.Notify(region)
	}
}

// ReclaimOrphanWALRecords drops every shared-log region whose name no
// hosted region claims, reclaiming the segments those records pin. A
// cold start needs this: a region that moved away before the last
// shutdown left records in this server's log, but after the restart it
// never re-registers here — its flush clock never advances, so without
// a drop marker its records would pin their segments (and stay in the
// shippable tail) until the *region's own* next flush on some other
// server, which can be never. OpenCluster calls this once per server
// after every catalog-assigned region has been reopened.
//
// Known residual: a crash between MoveRegion's WAL switch and the next
// flush leaves the moved region's post-switch records only in the new
// host's log; that window is unrelated to this reclaim (the records are
// in a *live* server's log and replay normally).
func (s *RegionServer) ReclaimOrphanWALRecords() ([]string, error) {
	s.mu.RLock()
	w := s.wal
	live := make(map[string]bool, len(s.regions))
	for name := range s.regions {
		live[name] = true
	}
	s.mu.RUnlock()
	if w == nil {
		return nil, nil
	}
	return w.DropAbsent(live)
}

// QuiesceReplication blocks until the replicator has reconciled and
// shipped every hosted region — the barrier between "acknowledged" and
// "safe to lose the primary" (see replication.Replicator.Quiesce).
func (s *RegionServer) QuiesceReplication() {
	s.mu.RLock()
	rep := s.replicator
	s.mu.RUnlock()
	if rep != nil {
		rep.Quiesce()
	}
}

// WALStats is a snapshot of the server's shared write-ahead log: how
// many records were appended, how many fsync rounds committed them
// (group commit keeps rounds sub-linear in appends across any number
// of regions), the physical log bytes, and the live segment count.
type WALStats struct {
	Appends    int64 `json:"appends"`
	SyncRounds int64 `json:"sync_rounds"`
	Bytes      int64 `json:"bytes"`
	Segments   int   `json:"segments"`
}

// WALStats snapshots the shared log (zero value without one; its last
// values after Shutdown).
func (s *RegionServer) WALStats() WALStats {
	_, w := s.statLayers()
	if w == nil {
		return WALStats{}
	}
	return WALStats{
		Appends:    w.Appends(),
		SyncRounds: w.SyncRounds(),
		Bytes:      w.BytesAppended(),
		Segments:   w.SegmentCount(),
	}
}

// SharedWAL exposes the server's shared log (tests; nil without one).
func (s *RegionServer) SharedWAL() *durable.WAL {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal
}

// ReplicationStats snapshots the server's SSTable shipper (zero value
// without one; its last values after Shutdown).
func (s *RegionServer) ReplicationStats() replication.Stats {
	rep, _ := s.statLayers()
	if rep == nil {
		return replication.Stats{}
	}
	return rep.Stats()
}

// statLayers returns the replicator and log whose counters the stats
// getters read: the live ones, or the ones Shutdown closed.
func (s *RegionServer) statLayers() (*replication.Replicator, *durable.WAL) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.replicator == nil && s.wal == nil {
		return s.shut.replicator, s.shut.wal
	}
	return s.replicator, s.wal
}

// handOff stops shipping a hosted region — its next host ships it from
// here on — while this server goes on serving it: the first step of a
// make-before-break move (Master.moveRegion). It returns the region,
// nil when not hosted.
func (s *RegionServer) handOff(name string) *Region {
	s.mu.RLock()
	r, rep := s.regions[name], s.replicator
	s.mu.RUnlock()
	if r != nil && rep != nil {
		rep.Untrack(name)
	}
	return r
}

// CloseRegion stops hosting a region and returns it (nil when absent).
func (s *RegionServer) CloseRegion(name string) *Region {
	s.mu.Lock()
	r := s.regions[name]
	rep := s.replicator
	if r != nil {
		delete(s.regions, name)
		s.rebuildIndexLocked()
	}
	s.mu.Unlock()
	if r != nil && rep != nil {
		// The region is no longer ours to ship; its next host re-tracks
		// it (OpenRegion) against its own replicator.
		rep.Untrack(name)
	}
	return r
}

// Regions returns the hosted regions sorted by name.
func (s *RegionServer) Regions() []*Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Region, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// region returns the hosted region called name, or nil.
func (s *RegionServer) region(name string) *Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.regions[name]
}

// NumRegions returns the hosted region count.
func (s *RegionServer) NumRegions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.regions)
}

// lookup locates the hosted region containing key for table via binary
// search over the table's sorted start keys, under the shared lock.
func (s *RegionServer) lookup(table, key string) (*Region, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.running {
		return nil, ErrServerStopped
	}
	regions := s.index[table]
	// The last region whose start key is <= key is the only candidate.
	i := sort.Search(len(regions), func(i int) bool { return regions[i].StartKey() > key })
	if i == 0 {
		return nil, ErrWrongRegionServer
	}
	if r := regions[i-1]; r.Contains(key) {
		return r, nil
	}
	return nil, ErrWrongRegionServer
}

// Get reads the newest value of key. The op is timed into the server-
// and region-level get histograms; with a slow-op threshold configured
// it is also traced stage by stage (route, memstore, bloom, block
// cache, SSTable reads) and captured in the slow log when over
// threshold.
func (s *RegionServer) Get(table, key string) ([]byte, error) {
	start := time.Now()
	tr := s.beginOp("get", table, key)
	r, err := s.lookup(table, key)
	tr.EndSpan("route", start)
	if err != nil {
		return nil, err
	}
	r.countRead()
	s.requests.AddRead()
	v, err := r.Store().GetTraced(key, tr)
	d := time.Since(start)
	recordOp(&s.tel.lat, &r.lat, opGet, d)
	s.finishOp(tr, d)
	return v, err
}

// Put writes a value. A flush it triggers reaches the HDFS mirror and
// the replicator through the store's files-changed hook (filesChanged).
func (s *RegionServer) Put(table, key string, value []byte) error {
	start := time.Now()
	tr := s.beginOp("put", table, key)
	r, err := s.lookup(table, key)
	tr.EndSpan("route", start)
	if err != nil {
		return err
	}
	r.countWrite()
	s.requests.AddWrite()
	if err := r.Store().PutTraced(key, value, tr); err != nil {
		return err
	}
	d := time.Since(start)
	recordOp(&s.tel.lat, &r.lat, opPut, d)
	s.finishOp(tr, d)
	return nil
}

// Delete removes a key. Deletes are writes: they time into the put
// histograms, matching the request counters.
func (s *RegionServer) Delete(table, key string) error {
	start := time.Now()
	tr := s.beginOp("delete", table, key)
	r, err := s.lookup(table, key)
	tr.EndSpan("route", start)
	if err != nil {
		return err
	}
	r.countWrite()
	s.requests.AddWrite()
	if err := r.Store().DeleteTraced(key, tr); err != nil {
		return err
	}
	d := time.Since(start)
	recordOp(&s.tel.lat, &r.lat, opPut, d)
	s.finishOp(tr, d)
	return nil
}

// Scan returns up to limit entries in [start, end) within one region,
// as the caller's copies. The client stitches multi-region scans
// together.
func (s *RegionServer) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	out, _, err := s.scan(table, start, end, limit)
	return out, err
}

// scan is Scan that also names the region that served, so the
// in-process client advances its cursor from that region's end.
func (s *RegionServer) scan(table, start, end string, limit int) ([]kv.Entry, *Region, error) {
	var r *Region
	out, err := kv.Collect(limit, func(fn func(kv.Entry) bool) (err error) {
		r, err = s.ScanFunc(table, start, end, limit, fn)
		return err
	})
	return out, r, err
}

// ScanFunc calls fn on up to limit entries in [start, end) within one
// region, until fn returns false, and names the region that served. As
// with kv.Store.ScanFunc, a Value is valid only during fn, which must
// not write it or keep it.
func (s *RegionServer) ScanFunc(table, start, end string, limit int, fn func(kv.Entry) bool) (*Region, error) {
	opStart := time.Now()
	tr := s.beginOp("scan", table, start)
	r, err := s.lookup(table, start)
	tr.EndSpan("route", opStart)
	if err != nil {
		return nil, err
	}
	r.countScan()
	s.requests.AddScan()
	scanEnd := end
	if r.EndKey() != "" && (scanEnd == "" || r.EndKey() < scanEnd) {
		scanEnd = r.EndKey()
	}
	err = r.Store().ScanFunc(start, scanEnd, limit, tr, fn)
	d := time.Since(opStart)
	recordOp(&s.tel.lat, &r.lat, opScan, d)
	s.finishOp(tr, d)
	return r, err
}

// mirrorSync reconciles the region's HDFS mirror with its engine file
// stack: files the engine flushed since the last sync are written to the
// namenode as local files (sized from the real store files — for a
// durable backend, the actual on-disk SSTable sizes), files the engine
// compacted away are deleted. The diff is computed atomically in the
// region (mirrorActions), so concurrent writers to different regions
// never contend on a server-wide lock and no file is mirrored twice.
func (s *RegionServer) mirrorSync(r *Region) {
	adds, removes, ok := r.mirrorActions(r.Store(), false)
	if !ok {
		return
	}
	for _, a := range adds {
		_ = s.namenode.WriteFile(a.name, a.bytes, s.name)
	}
	for _, f := range removes {
		_ = s.namenode.DeleteFile(f)
	}
}

// MajorCompact rewrites all of a region's files as one file local to this
// server, restoring locality — exactly what MeT's Actuator invokes when
// the locality index falls below its threshold. It returns the number of
// bytes rewritten (the paper charges ~1 minute per GB for this).
//
// The request routes through the server's background compaction queue at
// high priority: the caller still blocks until the rewrite completes
// (the actuator's contract), but the merge I/O runs on a pool worker
// under the shared I/O budget, off the store write lock, so serving
// continues throughout. On a shut-down server (no pool) it calls the
// engine directly (same locking profile — CompactFiles either way).
func (s *RegionServer) MajorCompact(regionName string) (int64, error) {
	s.mu.RLock()
	r, ok := s.regions[regionName]
	pool := s.compactor
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("hbase: major compact: region %q not hosted on %s", regionName, s.name)
	}
	store := r.Store()
	var inBytes int64
	for _, fi := range store.FileInfos() {
		inBytes += fi.Bytes
	}
	var err error
	if pool != nil {
		if err = pool.CompactWait(store); errors.Is(err, compaction.ErrPoolClosed) {
			err = store.Compact(true)
		}
	} else {
		err = store.Compact(true)
	}
	if err != nil {
		return 0, fmt.Errorf("hbase: major compact %s: %w", regionName, err)
	}
	// Reconcile the mirror against the post-compaction stack in one
	// atomic diff: the compacted output is written locally (restoring
	// locality), retired inputs — including a flush that raced the
	// compaction and was folded into it — are deleted, and any legacy
	// files from pre-restart stores are purged. Sizes always come from
	// the engine's real file stack, so nothing is double-counted.
	adds, removes, ok := r.mirrorActions(store, true)
	if ok {
		for _, a := range adds {
			if err := s.namenode.WriteFile(a.name, a.bytes, s.name); err != nil {
				return 0, err
			}
		}
		for _, f := range removes {
			_ = s.namenode.DeleteFile(f)
		}
	}
	return inBytes, nil
}

// Locality returns this server's locality index: the fraction of hosted
// region bytes whose HDFS blocks live on the co-located datanode.
func (s *RegionServer) Locality() float64 {
	var files []string
	for _, r := range s.Regions() {
		files = append(files, r.Files()...)
	}
	return s.namenode.Locality(s.name, files)
}

// RegionLocality returns one hosted region's locality index, the
// per-region share of Locality (1 when the region is not hosted here).
func (s *RegionServer) RegionLocality(name string) float64 {
	r := s.region(name)
	if r == nil {
		return 1
	}
	return s.namenode.Locality(s.name, r.Files())
}

// Requests returns the server-level cumulative counters.
func (s *RegionServer) Requests() metrics.RequestCounts {
	return s.requests.Snapshot()
}

// EngineStats snapshots the server's engine counters (flushes,
// compactions, write amplification, stall time, ...), which every store
// counts into while hosted here, plus the hosted stores' gauges.
func (s *RegionServer) EngineStats() kv.Stats {
	total := s.tel.engine.Snapshot()
	for _, r := range s.Regions() {
		st := r.Store().Stats()
		total.MemstoreCurrent += st.MemstoreCurrent
		total.CompactionQueueDepth += st.CompactionQueueDepth
	}
	return total
}

// CompactionStats snapshots the server's background compactor: the
// counts of every pool it has run, and the live pool's queue (none
// after Shutdown).
func (s *RegionServer) CompactionStats() compaction.PoolStats {
	s.mu.RLock()
	pool := s.compactor
	s.mu.RUnlock()
	if pool == nil {
		return s.tel.compaction.Stats()
	}
	return pool.Stats()
}

// Shutdown stops the server permanently: serving stops, the background
// compactor drains, and the replicator stops shipping (a dead server
// pushes nothing — its followers already hold whatever was shipped).
// Decommissioning and HardStop call this; a plain Stop (reconfiguration
// restart) keeps both alive.
func (s *RegionServer) Shutdown() {
	s.mu.Lock()
	s.running = false
	pool := s.compactor
	s.compactor = nil
	rep := s.replicator
	s.replicator = nil
	w := s.wal
	s.wal = nil
	if rep != nil || w != nil { // a second Shutdown keeps the first's
		s.shut.replicator, s.shut.wal = rep, w
	}
	s.mu.Unlock()
	if pool != nil {
		pool.Close()
	}
	if rep != nil {
		rep.Close()
	}
	if w != nil {
		// Release the file handle so a cold start (or a recovery sweep)
		// owns the directory. The final fsync cannot un-lose anything: a
		// record is acknowledged only after a commit round has actually
		// fsynced it — Close holds the group-commit leader slot while it
		// fences and fsyncs, so no round can credit records past a
		// skipped or failed final fsync.
		_ = w.Close() //lint:allow syncerr shutdown handle release; acknowledged records were covered by a real fsync (commit round serialized against Close via the committer leader slot)
	}
}

// Stop takes the server offline (requests fail until Start).
func (s *RegionServer) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running = false
}

// Start brings the server back online.
func (s *RegionServer) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running = true
}

// Restart applies a new configuration. As in real HBase there is no
// online reconfiguration: the server stops, every hosted region's store
// is reopened with the new engine parameters (cold cache), and the server
// comes back up. The caller (the Actuator) is responsible for draining
// regions first if it wants to keep them available during the restart.
// The data directory is the server's identity, not a setting: a cfg
// that changes it is rejected and the server keeps serving as it was.
func (s *RegionServer) Restart(cfg ServerConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if cfg.DataDir != s.cfg.DataDir {
		s.mu.Unlock()
		return fmt.Errorf("hbase: restart %s: data directory %q cannot change to %q", s.name, s.cfg.DataDir, cfg.DataDir)
	}
	s.running = false
	rewire := cfg.Compaction != s.cfg.Compaction
	oldPool := s.compactor
	s.cfg = cfg
	s.cache = kv.NewBlockCache(int(cfg.BlockCacheBytes()))
	s.tel.setConfig(cfg)
	if rewire {
		// New compaction knobs take effect like any other restart-only
		// HBase setting: the old pool drains and a fresh one (new
		// budget, policy, workers) serves the reopened stores. The
		// replicator and the WAL's foreground bytes charge the fresh
		// budget from their next ship and append on.
		s.compactor = newCompactorPool(cfg.Compaction, &s.tel.compaction)
		if s.replicator != nil {
			s.replicator.SetBudget(s.compactor.Budget())
		}
		if s.wal != nil {
			var account func(int)
			if s.compactor != nil {
				account = s.compactor.Budget().NoteForeground
			}
			s.wal.SetAccount(account)
		}
	}
	regions := make([]*Region, 0, len(s.regions))
	for _, r := range s.regions {
		regions = append(regions, r)
	}
	n := len(regions)
	s.mu.Unlock()
	if rewire && oldPool != nil {
		oldPool.Close()
	}

	sort.Slice(regions, func(i, j int) bool { return regions[i].Name() < regions[j].Name() })
	var errs []error
	for _, r := range regions {
		// A region moved away while we were down is the new host's to
		// reopen, not ours.
		s.mu.RLock()
		_, hosted := s.regions[r.Name()]
		s.mu.RUnlock()
		if !hosted {
			continue
		}
		if err := r.reopen(s.storeConfigFor(r.Name(), n)); err != nil {
			// A split or close that raced us retired the store; if the
			// region is truly gone that is not our failure. Either way
			// the server must come back up — a wedged-stopped server
			// would fail every request forever.
			s.mu.RLock()
			_, hosted = s.regions[r.Name()]
			s.mu.RUnlock()
			if hosted {
				errs = append(errs, err)
			}
			continue
		}
		// Catch the mirror and the followers up on the reopened store's
		// stack.
		s.filesChanged(r.Name())
	}
	s.mu.Lock()
	s.restarts++
	s.running = true
	s.mu.Unlock()
	return errors.Join(errs...)
}
