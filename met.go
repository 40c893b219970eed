// Package met is the public API of the MeT reproduction (Cruz et al.,
// "MeT: workload aware elasticity for NoSQL", EuroSys 2013): a
// workload-aware elasticity controller for an HBase-style NoSQL store,
// together with the full substrate it manages — a functional mini-HBase
// (regions, region servers, block cache / memstore / block-size tuning,
// HDFS-style locality), YCSB and TPC-C workload generators, and the
// simulated deployment used to reproduce the paper's evaluation.
//
// Three layers are exposed:
//
//   - NewCluster / Cluster: a working single-process HBase-like database
//     with a put/get/delete/scan client;
//   - NewController: MeT itself (Monitor, Decision Maker, Actuator) over
//     a functional cluster;
//   - the experiment runners (RunFigure1, RunFigure4, RunTable2,
//     RunElasticity) that regenerate every table and figure of the
//     paper's evaluation on the performance-model deployment, through
//     the same Actuator that reconfigures the functional cluster.
//
// # Choosing a storage backend
//
// Region stores run on one of two backends, selected per server by
// ServerConfig.DataDir:
//
//   - In-memory (DataDir == "", the default): data lives in the
//     memstore and heap-resident store files. Fast and hermetic — what
//     the paper's simulated experiments and most tests use. A process
//     exit loses everything.
//   - Durable (DataDir set): each region persists to its own directory
//     under DataDir — a group-committed, CRC-framed write-ahead log
//     plus SSTable block files with bloom filters (met/internal/
//     durable). Puts are acknowledged only after an fsync; restarts and
//     crashes recover every acknowledged write from disk. Use
//     NewClusterConfig to build a durable cluster, or `metbench
//     -durable DIR` to drive one under YCSB load.
//
// # Cold start
//
// A durable cluster persists more than region data: its *layout* —
// server membership and per-server configs, table schemas, region
// bounds and the region→server assignment — is written through to a
// META catalog, itself a durable kv store under DataDir/meta (HBase's
// META table, one level down; see met/internal/hbase/catalog.go for
// the row format and commit ordering). After a crash or clean stop,
//
//	cluster, err := met.OpenCluster(dataDir)
//
// rebuilds the entire cluster from the data directory alone: servers
// are re-created with their persisted configurations, every region
// store reopens from its own directory (WAL replay recovers every
// acknowledged write), and clients route from the committed layout as
// loaded — no CreateTable, no manual assignment. Operations that crashed before
// their catalog commit point are cleanly absent, never half-applied.
// `metbench -coldstart -durable DIR` drives this end to end: it
// hard-stops a loaded cluster mid-run, reopens it, and verifies every
// acknowledged write is readable through normal routing.
//
// # Replication & snapshots
//
// On the durable backend, region data is really replicated: each
// region server owns a replicator (met/internal/replication) that
// ships every flushed or compacted SSTable to the region's follower
// servers — chosen by the HDFS layer's replica placement and recorded
// in the META catalog — under DataDir/replica/<follower>/<region>.
// Shipping runs in the background, charged to the compaction I/O
// budget, so it yields to serving. When a server dies,
//
//	report, err := cluster.RecoverServer(name)
//
// reopens its regions on the followers holding their replica copies —
// from the copies alone, never the dead server's own directories —
// and reports exactly how many acknowledged writes the replicas did
// not cover (the unflushed memstore; zero after a clean flush with
// replication quiesced). Loss is always reported, never silent.
//
// Snapshots are the same machinery pointed at time instead of
// failure: Cluster.Snapshot(table, name) archives every region's
// SSTable set (plus its WAL high-water mark) under DataDir/snapshots
// and commits a manifest row; RestoreSnapshot(table, name) rebuilds
// the table to exactly that point — later writes gone, deletes
// undone — with the same atomic table-row commit discipline as splits
// and cold starts. `metbench -failover -durable DIR` drives the
// kill-and-recover path end to end (and CI gates on it under -race):
// it hard-kills a server, renames its primary region directories away,
// and requires 100% of acknowledged rows back from replicas with zero
// reported loss.
//
// On either backend, compaction runs in the background: each region
// server owns a compactor pool (met/internal/compaction) that merges
// store files off the engine locks, with a pluggable tiered/leveled
// policy and a token-bucket I/O budget shared with the serving path, so
// Puts keep flowing while heavy maintenance runs — the property MeT's
// actuator-issued major compactions depend on. Tune it per server via
// ServerConfig.Compaction (soft/hard file thresholds, policy, budget
// bytes/sec, worker count; write stalls are reported in the engine
// stats, never hidden). `metbench -sustained -durable DIR` drives the
// write-heavy scenario that keeps the compactor busy and reports
// flush/compaction/stall/write-amplification counters in its -json
// output.
//
// # Networked cluster
//
// Everything above runs the cluster in one process. The RPC layer
// (met/internal/rpc) and the metnode command turn the same durable
// data directory into a real multi-process deployment: one layout
// master process owning the META catalog, plus one region-server
// process per catalog member, talking HTTP — a JSON control plane for
// registration/layout/recovery and a length-prefixed binary data plane
// for get/put/delete/scan. Exactly one process owns each WAL: workers
// never open the catalog, they fetch a manifest (config, assigned
// regions, routing epoch) from the master at startup instead.
//
//	metnode -role master -data DIR
//	metnode -role server -name rs0 -master HOST:PORT
//
// Clients (rpc.Dial) cache the master's layout and route each key
// straight to its hosting worker. (In one process, hbase.Client reads
// the same layout — the route table its master's last commit published
// — on every operation, and never caches it.) Every layout change bumps
// a routing epoch; a request carrying a stale epoch bounces with 409 and the
// client transparently re-fetches and retries, the same path that
// absorbs connection-refused when a worker dies. A deadline is the
// caller's alone: a call that times out returns
// context.DeadlineExceeded with an indeterminate outcome, because the
// server finishes every op it has started. Every node serves /healthz,
// /readyz and /metrics with graceful drain on SIGTERM — in-flight
// requests finish, timed-out ones included, and acknowledged writes are
// never truncated.
//
// Workloads run over rpc.Dial unchanged: the data plane is declared once
// (hbase.KV — Get, Put, Delete, Scan) and both clients satisfy it, so the
// YCSB runner, the TPC-C loader and executor and metbench's recovery
// scenarios take either. A miss is kv.ErrNotFound from both, and a
// worker whose region server is stopped surfaces as hbase.ErrServerStopped
// from both, which the runner counts as transient rather than failed.
// Only table creation still needs the in-process master (it has no wire
// endpoint), so a networked cluster is bootstrapped in-process first.
//
// The layout has one owner in either deployment (hbase.LayoutMaster:
// catalog rows, commits, follower placement, failover); the in-process
// Master is built on the same one the master process serves. So a
// cold start opens every member the way a worker process does, a
// region's followers are the members hosting the fewest regions
// whichever master placed them, and a killed worker is recovered by
// the very loop Cluster.RecoverServer runs — one region at a time: elect
// the best replica copy on the shared disk, have that survivor adopt
// the region, commit its table row — with POST /node/adopt in place of
// a direct call. A recovery that fails mid-way leaves the regions it
// committed routable and the dead worker a member; POST
// /master/recover again finishes the rest. `metbench -procs 3
// -failover -durable DIR` drives all of it with real OS processes and
// kill -9, and CI gates on the loss bounds: zero after a replication
// quiesce, at most 2×64 records per dead region mid-burst.
//
// # Observability
//
// Every server carries an always-on telemetry layer (met/internal/obs):
// lock-free HDR-style latency histograms record every Get/Put/Scan at
// both server and region level, plus every engine-side duration — WAL
// fsync rounds, memstore flushes, compactions, replication SSTable
// ships and WAL-tail ships. Percentiles (p50/p95/p99/p999) come from
// mergeable snapshots, so recording costs ~15ns per op and never locks.
//
// There is one metrics tree. RegionServer.Stats returns a server's
// whole state as one value (hbase.ServerStats: each layer's counters
// snapshotted once, the latency distributions, and the derived
// quantities — compaction and replication backlog, writes per fsync),
// hbase.WriteServerMetrics renders such values as the met_* Prometheus
// series, and everything that reports reads it: the debug plane below,
// `metbench -json` (per server and summed) and the controller's
// monitor (core.MasterCluster). The tree is served in two places, by
// the same code:
//
//	srv, err := cluster.ServeDebug("127.0.0.1:6060")
//
// starts the opt-in debug plane of an in-process cluster, all servers
// on one page: /metrics, /healthz (non-200 while any server is
// stopped), /debug/slowops (JSON), /debug/vars (expvar) and
// /debug/pprof/. Every metnode process serves the same endpoints on the
// listener it already has — a worker for the one server it hosts, plus
// rpc_op_latency_seconds per route and /readyz (503 while draining):
//
//	curl -s http://$WORKER/metrics | grep -E 'met_wal_|met_replication_'
//	curl -s http://$WORKER/debug/slowops
//	go tool pprof http://$WORKER/debug/pprof/profile?seconds=10
//
// Setting ServerConfig.SlowOpThreshold additionally arms per-op
// tracing: an operation slower than the threshold lands in the server's
// bounded slow-op ring with per-stage spans (routing, memstore, bloom,
// block cache, SSTable reads, WAL append/sync) — RegionServer.SlowOps
// returns them, the debug plane serves them. `metbench -slowlog 10ms
// -debug-addr :6060` wires both into the benchmark.
package met

import (
	"fmt"
	"io"

	"met/internal/core"
	"met/internal/exp"
	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/obs"
	"met/internal/placement"
)

// Re-exported substrate types for embedding users.
type (
	// Cluster bundles a functional HBase-like deployment.
	Cluster struct {
		Master *hbase.Master
		Client *hbase.Client
	}
	// ServerConfig is a region server's tuning (cache / memstore /
	// block size / handlers).
	ServerConfig = hbase.ServerConfig
	// Controller is the MeT control loop over a functional cluster.
	Controller = core.Controller
	// Params are MeT's decision parameters.
	Params = core.Params
	// AccessType is a workload access-pattern class.
	AccessType = placement.AccessType
	// RecoveryReport is RecoverServer's accounting: which regions were
	// reopened from which follower's replica SSTables, and exactly how
	// many acknowledged writes the replicas did not cover.
	RecoveryReport = hbase.RecoveryReport
)

// Access pattern classes (Table 1 profiles exist for each).
const (
	ReadWrite = placement.ReadWrite
	Read      = placement.Read
	Write     = placement.Write
	Scan      = placement.Scan
)

// Sentinel errors re-exported for embedders steering cluster lifecycle.
var (
	// ErrClusterExists: NewClusterConfig's DataDir already holds a
	// committed cluster; cold-start it with OpenCluster instead.
	ErrClusterExists = hbase.ErrClusterExists
	// ErrTableExists: the table name is taken — typically because a
	// cold start already recovered it.
	ErrTableExists = hbase.ErrTableExists
)

// DefaultServerConfig returns an out-of-the-box tuned homogeneous node
// configuration.
func DefaultServerConfig() ServerConfig { return hbase.DefaultServerConfig() }

// Table1Profiles returns the paper's per-group node profiles.
func Table1Profiles() map[AccessType]ServerConfig { return core.Table1Profiles() }

// DefaultParams returns the paper's Decision Maker parameters.
func DefaultParams() Params { return core.DefaultParams() }

// NewCluster creates a functional cluster with n homogeneous region
// servers (each co-located with an HDFS datanode, replication factor 2).
func NewCluster(n int) (*Cluster, error) {
	return NewClusterConfig(n, hbase.DefaultServerConfig())
}

// NewClusterConfig creates a functional cluster with n region servers
// sharing cfg. Setting cfg.DataDir puts every region store on the
// durable disk backend (WAL + SSTables, crash recovery); leaving it
// empty keeps the in-memory simulation backend.
func NewClusterConfig(n int, cfg ServerConfig) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("met: cluster needs at least one server, got %d", n)
	}
	nn := hdfs.NewNamenode(2)
	var m *hbase.Master
	if cfg.DataDir != "" {
		// A durable cluster persists its own layout: the META catalog
		// under DataDir records server membership, table schemas and the
		// region assignment, so the whole cluster can later cold-start
		// with OpenCluster(DataDir) alone.
		var err error
		m, err = hbase.NewDurableMaster(nn, cfg.DataDir)
		if err != nil {
			return nil, err
		}
	} else {
		m = hbase.NewMaster(nn)
	}
	for i := 0; i < n; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), cfg); err != nil {
			return nil, err
		}
	}
	return &Cluster{Master: m, Client: hbase.NewClient(m)}, nil
}

// OpenCluster cold-starts a previously durable cluster from its data
// directory alone: the META catalog is replayed, every region server is
// re-created with its persisted configuration, every region store is
// reopened from disk (recovering all acknowledged writes), and clients
// route from the committed layout as loaded — no CreateTable or manual
// assignment needed. See the
// "Cold start" section of the package documentation.
func OpenCluster(dataDir string) (*Cluster, error) {
	m, err := hbase.OpenCluster(dataDir)
	if err != nil {
		return nil, err
	}
	return &Cluster{Master: m, Client: hbase.NewClient(m)}, nil
}

// CreateTable creates a pre-split table; n split keys make n+1 regions.
func (c *Cluster) CreateTable(name string, splitKeys []string) error {
	_, err := c.Master.CreateTable(name, splitKeys)
	return err
}

// Put writes a value (atomic, immediately visible to readers).
func (c *Cluster) Put(table, key string, value []byte) error {
	return c.Client.Put(table, key, value)
}

// Get reads the newest value of key.
func (c *Cluster) Get(table, key string) ([]byte, error) {
	return c.Client.Get(table, key)
}

// Delete removes a key.
func (c *Cluster) Delete(table, key string) error {
	return c.Client.Delete(table, key)
}

// Scan returns up to limit entries in [start, end) as key/value pairs.
func (c *Cluster) Scan(table, start, end string, limit int) (keys []string, values [][]byte, err error) {
	entries, err := c.Client.Scan(table, start, end, limit)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		keys = append(keys, e.Key)
		values = append(values, e.Value)
	}
	return keys, values, nil
}

// Snapshot archives a point-in-time copy of a table — the exact
// SSTable set of every region plus its WAL high-water mark — committed
// as one fsynced META manifest row. Durable clusters only.
func (c *Cluster) Snapshot(table, name string) error {
	return c.Master.Snapshot(table, name)
}

// RestoreSnapshot rebuilds a table to a committed snapshot's exact
// contents: writes after the snapshot are gone, deleted rows are back.
// The switch is one atomic table-row commit; a crash on either side
// leaves a complete table.
func (c *Cluster) RestoreSnapshot(table, name string) error {
	return c.Master.RestoreSnapshot(table, name)
}

// RecoverServer fails over a dead (stopped) server: its regions reopen
// on the followers holding their replica SSTables, and the report
// counts precisely the acknowledged writes the replicas did not cover
// — zero after a clean flush with replication quiesced.
func (c *Cluster) RecoverServer(name string) (*RecoveryReport, error) {
	return c.Master.RecoverServer(name)
}

// ServeDebug starts the cluster's HTTP debug plane on addr (host:port;
// ":0" picks a free port — read it back from DebugServer.Addr). It
// serves /metrics (Prometheus text exposition), /healthz,
// /debug/slowops, /debug/vars and /debug/pprof until Close. Purely
// opt-in: a cluster that never calls ServeDebug opens no sockets.
func (c *Cluster) ServeDebug(addr string) (*obs.DebugServer, error) {
	return obs.ServeDebug(addr, c.Master.DebugConfig())
}

// NewController attaches MeT to a functional cluster: its Monitor polls
// the cluster's servers and its Actuator reconfigures them, both through
// the one core.MasterCluster over c.Master. nominalOpsPerSec calibrates
// the synthetic CPU metric of the functional layer (the request rate one
// node counts as fully busy). The caller ticks the controller once per
// monitoring sample (core.SamplePeriod in the paper); the first tick
// counts every request the regions have served so far.
func NewController(c *Cluster, params Params, nominalOpsPerSec float64) *Controller {
	mc := &core.MasterCluster{Master: c.Master, NominalOpsPerSec: nominalOpsPerSec}
	return core.NewController(mc, core.NewDecisionMaker(params, core.Table1Profiles()))
}

// Experiment result aliases.
type (
	// Figure1 is the motivation experiment's result.
	Figure1 = exp.Fig1Result
	// Figure4 is the convergence experiment's result.
	Figure4 = exp.Fig4Result
	// Table2 is the TPC-C versatility experiment's result.
	Table2 = exp.Table2Result
	// Elasticity is the Figure 5/6 experiment's result.
	Elasticity = exp.ElasticityResult
)

// RunFigure1 regenerates Figure 1 (manual strategies, percentiles over
// `runs` 30-minute runs).
func RunFigure1(runs int, seed uint64) *Figure1 { return exp.RunFig1(runs, seed) }

// RunFigure4 regenerates Figure 4 (MeT convergence vs manual configs).
func RunFigure4(seed uint64) *Figure4 { return exp.RunFig4(seed) }

// RunTable2 regenerates Table 2 (PyTPCC average throughput).
func RunTable2(seed uint64) *Table2 { return exp.RunTable2(seed) }

// RunElasticity regenerates Figures 5 and 6 (MeT vs Tiramola).
func RunElasticity(seed uint64) *Elasticity { return exp.RunElasticity(seed) }

// PrintAll runs every experiment and writes the full evaluation report.
func PrintAll(w io.Writer, seed uint64) {
	RunFigure1(5, seed).Print(w)
	fmt.Fprintln(w)
	RunFigure4(seed).Print(w)
	fmt.Fprintln(w)
	RunTable2(seed).Print(w)
	fmt.Fprintln(w)
	RunElasticity(seed).Print(w)
}
