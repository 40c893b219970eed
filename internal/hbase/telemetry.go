package hbase

import (
	"sync/atomic"
	"time"

	"met/internal/compaction"
	"met/internal/kv"
	"met/internal/metrics"
	"met/internal/obs"
	"met/internal/replication"
)

// opHists is the per-op-class latency histogram set recorded on every
// served operation, kept at both server and region granularity (the
// same two levels the request counters use). Deletes count as writes,
// so they land in put.
type opHists struct {
	get  obs.Histogram
	put  obs.Histogram
	scan obs.Histogram
}

// serverTelemetry is the RegionServer's observability state. The
// histograms are always on (lock-free, ~15ns per record); the trace
// machinery is armed only when ServerConfig.SlowOpThreshold is set.
// slowNanos is atomic because the hot path reads it outside the
// server's topology lock and Restart rewrites it.
type serverTelemetry struct {
	lat       opHists
	slowLog   *obs.SlowLog
	slowNanos atomic.Int64 // 0 = tracing disabled
	// engine is what every store counts while hosted here (kv.Host):
	// a moved store's history stays with the server it ran on, and a
	// restart's reopened stores count on.
	engine kv.Counters
	// compaction is what the server's compaction pools count, so a
	// re-profiling restart's fresh pool counts on from the old one's
	// totals, and a shut-down server keeps them.
	compaction compaction.Counters
}

// beginOp starts a trace for an operation when tracing is armed.
// Returns nil (free everywhere downstream) otherwise.
func (s *RegionServer) beginOp(op, table, key string) *obs.Trace {
	if s.tel.slowThreshold() == 0 {
		return nil
	}
	return obs.StartTrace(op, table, key)
}

// finishOp records a traced op into the slow log if it crossed the
// threshold.
func (s *RegionServer) finishOp(tr *obs.Trace, d time.Duration) {
	if tr == nil {
		return
	}
	if thr := s.tel.slowThreshold(); thr > 0 && d >= thr {
		s.tel.slowLog.Observe(tr, d)
	}
}

// SlowOps returns the server's retained slow operations, oldest first.
func (s *RegionServer) SlowOps() []obs.SlowOp { return s.tel.slowLog.Snapshot() }

// SlowOpsTotal returns how many ops ever crossed the slow threshold.
func (s *RegionServer) SlowOpsTotal() int64 { return s.tel.slowLog.Total() }

// LatencyStats is a server's full latency snapshot: the three serving
// histograms plus every engine-side duration distribution. Zero-valued
// snapshots mean the subsystem is absent (no WAL on the in-memory
// backend, no replicator without a DataDir).
type LatencyStats struct {
	Get             obs.Snapshot `json:"get"`
	Put             obs.Snapshot `json:"put"`
	Scan            obs.Snapshot `json:"scan"`
	Fsync           obs.Snapshot `json:"fsync"`            // shared-WAL commit fsync rounds
	Flush           obs.Snapshot `json:"flush"`            // memstore flushes while hosted here
	Compaction      obs.Snapshot `json:"compaction"`       // background pool merges
	ReplicationShip obs.Snapshot `json:"replication_ship"` // SSTable reconciles that copied data
	TailShip        obs.Snapshot `json:"tail_ship"`        // WAL-tail frame-file ships
}

// LatencyClass names one of a LatencyStats' distributions.
type LatencyClass struct {
	Name string // the class's JSON key
	Snap *obs.Snapshot
}

// Classes lists the eight distributions in report order.
func (ls *LatencyStats) Classes() []LatencyClass {
	return []LatencyClass{
		{"get", &ls.Get}, {"put", &ls.Put}, {"scan", &ls.Scan},
		{"fsync", &ls.Fsync}, {"flush", &ls.Flush}, {"compaction", &ls.Compaction},
		{"replication_ship", &ls.ReplicationShip}, {"tail_ship", &ls.TailShip},
	}
}

// LatencyStats snapshots the server's latency histograms.
func (s *RegionServer) LatencyStats() LatencyStats {
	ls := LatencyStats{
		Get:   s.tel.lat.get.Snapshot(),
		Put:   s.tel.lat.put.Snapshot(),
		Scan:  s.tel.lat.scan.Snapshot(),
		Flush: s.tel.engine.Flush.Snapshot(),
	}
	ls.Compaction = s.tel.compaction.Latency()
	repl, wal := s.statLayers()
	if wal != nil {
		ls.Fsync = wal.FsyncLatency()
	}
	if repl != nil {
		ls.ReplicationShip = repl.ShipLatency()
		ls.TailShip = repl.TailShipLatency()
	}
	return ls
}

// RegionStats is one hosted region's slice of a ServerStats.
type RegionStats struct {
	Name      string                `json:"name"`
	Requests  metrics.RequestCounts `json:"requests"` // cumulative
	DataBytes int64                 `json:"data_bytes"`
	Get       obs.Snapshot          `json:"get"`
	Put       obs.Snapshot          `json:"put"`
	Scan      obs.Snapshot          `json:"scan"`
}

// ServerStats is everything one region server reports about itself at
// one instant: each layer's own snapshot plus the quantities derived
// from more than one counter. The /metrics page (WriteServerMetrics),
// metbench's report and the controller's monitor (core.MasterCluster,
// through SystemUsage) all read it, so a number means the same thing
// wherever it shows up. A plain value: copy it, marshal it, Add it.
//
// A cumulative counter counts what happened on this server since
// Started: it never falls, and a region move or a restart moves none of
// it. What belongs to a region lives in PerRegion and travels with it.
type ServerStats struct {
	Name        string                `json:"name,omitempty"`
	Up          bool                  `json:"up,omitempty"`
	At          time.Time             `json:"at"`          // when taken: SystemUsage's periods end here
	Started     time.Time             `json:"started"`     // when the server was created
	CacheBytes  int64                 `json:"cache_bytes"` // block cache in use
	HeapBytes   int64                 `json:"heap_bytes"`
	Handlers    int                   `json:"handlers"`
	Regions     int                   `json:"regions"`
	Requests    metrics.RequestCounts `json:"requests"` // cumulative
	Locality    float64               `json:"locality,omitempty"`
	Engine      kv.Stats              `json:"engine"`
	Compaction  compaction.PoolStats  `json:"compaction"`
	Replication replication.Stats     `json:"replication"`
	WAL         WALStats              `json:"wal"`
	Latency     LatencyStats          `json:"latency"`
	SlowOps     int64                 `json:"slow_ops"`

	// Derived (see derive). A backlog is work queued plus in flight:
	// stores awaiting compaction, regions whose replicas are behind — a
	// failover while that one stays non-zero loses more than the
	// unsynced window. WritesPerFsync is the group-commit batching the
	// shared WAL achieved.
	CompactionBacklog  int     `json:"compaction_backlog"`
	ReplicationBacklog int     `json:"replication_backlog"`
	WritesPerFsync     float64 `json:"writes_per_fsync"`

	PerRegion []RegionStats `json:"per_region,omitempty"`
}

// derive fills the fields computed from more than one counter — their
// only definition.
func (st *ServerStats) derive() {
	st.CompactionBacklog = st.Compaction.QueueDepth + st.Compaction.Running
	st.ReplicationBacklog = st.Replication.QueueDepth + st.Replication.Active
	st.WritesPerFsync = 0
	if st.WAL.SyncRounds > 0 {
		st.WritesPerFsync = float64(st.WAL.Appends) / float64(st.WAL.SyncRounds)
	}
}

// SystemUsage derives StageA's inputs from two snapshots of a server,
// each capped at 1. CPU is Get/Put/Scan time over Handlers × the
// period: handler-busy time, which includes the fsync and stall waits
// inside Puts, so it is not CPU time alone. I/O wait is fsync, flush and
// stall time over the period. Memory is memstore plus block cache over
// the heap. Without a prev of cur's server the period starts at its
// start; a sum that fell counts whole.
func SystemUsage(prev, cur ServerStats) metrics.SystemMetrics {
	if !prev.Started.Equal(cur.Started) {
		prev = ServerStats{At: cur.Started}
	}
	period := float64(cur.At.Sub(prev.At))
	p, c := &prev.Latency, &cur.Latency
	busy := grown(p.Get.Sum(), c.Get.Sum()) + grown(p.Put.Sum(), c.Put.Sum()) + grown(p.Scan.Sum(), c.Scan.Sum())
	wait := grown(p.Fsync.Sum(), c.Fsync.Sum()) + grown(p.Flush.Sum(), c.Flush.Sum()) + grown(prev.Engine.StallNanos, cur.Engine.StallNanos)
	return metrics.SystemMetrics{
		CPUUtilization: fraction(busy, period*float64(cur.Handlers)),
		IOWait:         fraction(wait, period),
		MemoryUsage:    fraction(float64(cur.Engine.MemstoreCurrent+cur.CacheBytes), float64(cur.HeapBytes)),
	}
}

// grown is a cumulative sum's growth; one that fell restarted.
func grown(prev, cur int64) float64 {
	if cur < prev {
		prev = 0
	}
	return float64(cur - prev)
}

// fraction is n/d capped at 1, and 0 over an empty d.
func fraction(n, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return min(n/d, 1)
}

// Add returns the roll-up of two servers' snapshots: counters and
// gauges sum, histograms merge, derived fields are recomputed. Name,
// Up, At, Started, Locality and PerRegion describe one server and come
// out zero.
func (st ServerStats) Add(o ServerStats) ServerStats {
	st.Name, st.Up, st.At, st.Started, st.Locality, st.PerRegion = "", false, time.Time{}, time.Time{}, 0, nil
	st.CacheBytes, st.HeapBytes, st.Handlers = st.CacheBytes+o.CacheBytes, st.HeapBytes+o.HeapBytes, st.Handlers+o.Handlers
	st.Regions += o.Regions
	st.Requests = st.Requests.Add(o.Requests)
	st.Engine = st.Engine.Add(o.Engine)
	st.Compaction = st.Compaction.Add(o.Compaction)
	st.Replication = st.Replication.Add(o.Replication)
	st.WAL.Appends += o.WAL.Appends
	st.WAL.SyncRounds += o.WAL.SyncRounds
	st.WAL.Bytes += o.WAL.Bytes
	st.WAL.Segments += o.WAL.Segments
	st.SlowOps += o.SlowOps
	theirs := o.Latency.Classes()
	for i, c := range st.Latency.Classes() {
		c.Snap.Merge(*theirs[i].Snap)
	}
	st.derive()
	return st
}

// Stats snapshots the server, calling each layer's getter once: a
// scrape is one pass however many series it renders. Nothing on a
// serving path calls it.
func (s *RegionServer) Stats() ServerStats {
	regions := s.Regions()
	s.mu.RLock()
	cfg, cache := s.cfg, s.cache
	s.mu.RUnlock()
	st := ServerStats{
		Name:        s.name,
		Up:          s.Running(),
		At:          time.Now(),
		Started:     s.started,
		CacheBytes:  int64(cache.Used()),
		HeapBytes:   cfg.HeapBytes,
		Handlers:    cfg.Handlers,
		Regions:     len(regions),
		Requests:    s.Requests(),
		Locality:    s.Locality(),
		Engine:      s.EngineStats(),
		Compaction:  s.CompactionStats(),
		Replication: s.ReplicationStats(),
		WAL:         s.WALStats(),
		Latency:     s.LatencyStats(),
		SlowOps:     s.SlowOpsTotal(),
		PerRegion:   make([]RegionStats, len(regions)),
	}
	for i, r := range regions {
		st.PerRegion[i] = RegionStats{
			Name:      r.Name(),
			Requests:  r.Requests(),
			DataBytes: r.DataBytes(),
			Get:       r.lat.get.Snapshot(),
			Put:       r.lat.put.Snapshot(),
			Scan:      r.lat.scan.Snapshot(),
		}
	}
	st.derive()
	return st
}

func (t *serverTelemetry) slowThreshold() time.Duration {
	return time.Duration(t.slowNanos.Load())
}

func (t *serverTelemetry) setConfig(cfg ServerConfig) {
	t.slowNanos.Store(int64(cfg.SlowOpThreshold))
}

// recordOp lands one served operation in the server- and region-level
// histograms for its op class.
func recordOp(server, region *opHists, class opClass, d time.Duration) {
	v := int64(d)
	switch class {
	case opGet:
		server.get.RecordNanos(v)
		region.get.RecordNanos(v)
	case opPut:
		server.put.RecordNanos(v)
		region.put.RecordNanos(v)
	case opScan:
		server.scan.RecordNanos(v)
		region.scan.RecordNanos(v)
	}
}

type opClass int

const (
	opGet opClass = iota
	opPut
	opScan
)
