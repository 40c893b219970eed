// Command metbench drives the functional mini-HBase cluster with YCSB or
// TPC-C load and reports real engine statistics (operations, cache hit
// ratios, flushes, region counts) — the functional-layer counterpart of
// cmd/metsim's model-based experiments.
//
// Usage:
//
//	metbench -workload A|B|C|D|E|F|tpcc [-servers 3] [-ops 20000] [-records 5000]
//	         [-concurrency 8] [-met] [-durable DIR] [-json out.json] [-coldstart]
//	         [-procs N [-failover]]
//
// With -procs N the bootstrapped durable cluster is restarted as 1
// master + N region-server OS processes (the metnode binary) and the
// load runs over the networked RPC client; -failover additionally
// kill -9s workers and proves the recovery loss bounds (see procs.go).
//
// YCSB operations run from -concurrency N closed-loop client goroutines
// (default 1), the way real YCSB drives HBase with a client thread pool;
// there is one driver (ycsb.Runner over hbase.KV), so N = 1 is the same
// code path, and N > 1 exercises the cluster's concurrent serving path.
// The run is split into ten batches; with -met the MeT controller is
// attached and takes a monitoring sample — and possibly reconfigures
// the cluster — between batches, at any -concurrency.
//
// With -durable DIR every region store runs on the on-disk backend
// (met/internal/durable): group-committed WAL, SSTables, crash
// recovery, and replication of SSTables and WAL tails to followers.
// Without it, stores are in-memory as in the paper's simulated
// experiments. -sustained -durable is also a replication-health gate:
// it exits non-zero if any SSTable copy or tail append failed.
//
// With -json FILE a machine-readable result is written: ns/op, ops/sec,
// per-op counts, and the servers' own telemetry snapshots
// (hbase.ServerStats — the values behind /metrics), per server and
// summed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"met"
	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/obs"
	"met/internal/sim"
	"met/internal/tpcc"
	"met/internal/ycsb"
)

// result is the machine-readable benchmark report (-json).
type result struct {
	Workload  string `json:"workload"`
	Sustained bool   `json:"sustained,omitempty"`
	Ops       int    `json:"ops"`
	Records   int64  `json:"records"`
	Servers   int    `json:"servers"`
	// GoMaxProcs and NumCPU pin the parallelism the run actually had —
	// single-core CI caps observable speedup (and group-commit
	// batching) at 1×, so trajectory comparisons must be per-core.
	GoMaxProcs  int                `json:"gomaxprocs"`
	NumCPU      int                `json:"num_cpu"`
	Concurrency int                `json:"concurrency"`
	Durable     bool               `json:"durable"`
	WallSeconds float64            `json:"wall_seconds"`
	NsPerOp     float64            `json:"ns_per_op"`
	OpsPerSec   float64            `json:"ops_per_sec"`
	Completed   int64              `json:"completed"`
	Errors      int64              `json:"errors"`
	Transient   int64              `json:"transient,omitempty"`
	PerOp       map[string]int64   `json:"per_op,omitempty"`
	PerOpNs     map[string]float64 `json:"per_op_ns,omitempty"`
	// ClientLatency is the client-observed per-op distribution from the
	// runner's worker shards (includes routing and retries).
	ClientLatency map[string]obs.LatencySummary `json:"client_latency,omitempty"`
	// ServerStats is the servers' telemetry summed over the cluster, its
	// sections inlined: requests, engine, compaction, replication, wal,
	// slow_ops, the derived backlogs and writes_per_fsync, and latency —
	// the eight distributions merged over all servers, percentiles in
	// nanoseconds bucketed to <=12.5% relative error, counts and means
	// exact. Cluster holds the same snapshot per server.
	*hbase.ServerStats
	Cluster []hbase.ServerStats `json:"cluster"`
	// LostWrites is the failover scenario's reported data loss after the
	// clean-flush kill; LostWritesUnflushed after the hot-memstore kill
	// (bounded by the unsynced tail — zero after a quiesce).
	LostWrites          int64 `json:"lost_writes,omitempty"`
	LostWritesUnflushed int64 `json:"lost_writes_unflushed,omitempty"`
	// Procs records the real OS processes a -procs run drove (CI
	// asserts the multi-process claim against the PIDs).
	Procs *procState `json:"procs,omitempty"`
}

// writeResultJSON emits one machine-readable report file.
func writeResultJSON(path string, res *result) {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("results written to %s\n", path)
}

// sumStats rolls per-server snapshots up to the cluster's.
func sumStats(servers []hbase.ServerStats) *hbase.ServerStats {
	var total hbase.ServerStats
	for _, st := range servers {
		total = total.Add(st)
	}
	return &total
}

func main() {
	workload := flag.String("workload", "A", "YCSB workload letter (A-F) or 'tpcc'")
	servers := flag.Int("servers", 3, "region servers")
	ops := flag.Int("ops", 20000, "operations (or transactions for tpcc)")
	records := flag.Int64("records", 5000, "records to load per table")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	concurrency := flag.Int("concurrency", 1, "closed-loop client goroutines (YCSB only; values below 1 mean 1)")
	withMeT := flag.Bool("met", false, "attach the MeT controller during the run: it samples, and may reconfigure the cluster, between the run's ten batches, at any -concurrency (YCSB only); a failed actuation exits non-zero")
	durableDir := flag.String("durable", "", "data directory: run region stores on the durable disk backend")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	sustained := flag.Bool("sustained", false,
		"sustained write-heavy scenario: workload B (100% update), bigger values and a tiny heap so flushes, background compactions and write stalls actually happen during the run; with -durable it exits non-zero on any replication failure")
	coldstart := flag.Bool("coldstart", false,
		"cold-start scenario (requires -durable): write acknowledged rows across two tables, move a region, hard-stop the whole cluster mid-run, reopen it from the data directory alone (met.OpenCluster) and verify every acknowledged write plus the recovered layout")
	procs := flag.Int("procs", 0,
		"networked multi-process scenario (requires -durable): restart the bootstrapped cluster as 1 master + N region-server OS processes (metnode) over the RPC layer and drive load through the networked client; with -failover additionally kill -9 workers and prove the loss bounds (0 after a quiesce, at most 2*64 records per dead region mid-burst)")
	nodeBin := flag.String("node-bin", "", "path to the metnode binary for -procs (default: next to metbench, then $PATH)")
	failover := flag.Bool("failover", false,
		"failover scenario (requires -durable): 3+ servers with replication factor 2, write acknowledged rows, cleanly flush and quiesce replication, hard-kill one server AND rename its primary region directories away, Master.RecoverServer from the replica SSTables alone, verify zero reported loss and every acknowledged row")
	maxFiles := flag.Int("max-store-files", 0, "soft store-file threshold triggering background compaction (0 = default)")
	stallFiles := flag.Int("stall-files", 0, "hard store-file ceiling stalling writers (0 = 3x soft threshold)")
	compactPolicy := flag.String("compact-policy", "", "background compaction policy: tiered or leveled (default tiered)")
	compactBudget := flag.Int64("compact-budget-mb", 0, "background compaction I/O budget in MB/s shared with serving (0 = unlimited)")
	compactWorkers := flag.Int("compact-workers", 0, "compactor pool workers per server (0 = default 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	slowlog := flag.Duration("slowlog", 0, "arm slow-op tracing: ops at least this slow are kept with per-stage spans (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve the HTTP debug plane (/metrics, /healthz, /debug/pprof) on this address for the run's duration")
	flag.Parse()
	*concurrency = max(*concurrency, 1)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := hbase.DefaultServerConfig()
	cfg.SlowOpThreshold = *slowlog
	cfg.DataDir = *durableDir
	cfg.Compaction = hbase.CompactionConfig{
		MaxStoreFiles:     *maxFiles,
		StallStoreFiles:   *stallFiles,
		BudgetBytesPerSec: *compactBudget << 20,
		Workers:           *compactWorkers,
		Policy:            *compactPolicy,
	}
	if *sustained {
		if *workload != "A" && *workload != "B" {
			fmt.Fprintln(os.Stderr, "metbench: -sustained forces workload B")
		}
		*workload = "B"
		// A 1 MiB heap puts the per-region flush threshold in the
		// hundreds of KB, so a short run flushes dozens of files and
		// the background compactor (not the write lock) has to keep
		// the file count bounded.
		cfg.HeapBytes = 1 << 20
		if cfg.Compaction.MaxStoreFiles == 0 {
			cfg.Compaction.MaxStoreFiles = 4
		}
		valueBytes = 512
	}
	if *coldstart {
		if *durableDir == "" {
			log.Fatal("metbench: -coldstart requires -durable DIR")
		}
		runColdStart(*durableDir, cfg, *servers, *ops, *seed, *jsonOut)
		return
	}
	if *procs > 0 {
		if *durableDir == "" {
			log.Fatal("metbench: -procs requires -durable DIR")
		}
		runProcs(*durableDir, cfg, *procs, *ops, *seed, *nodeBin, *failover, *jsonOut)
		return
	}
	if *failover {
		if *durableDir == "" {
			log.Fatal("metbench: -failover requires -durable DIR")
		}
		runFailover(*durableDir, cfg, *servers, *ops, *seed, *jsonOut)
		return
	}
	cluster, err := met.NewClusterConfig(*servers, cfg)
	if errors.Is(err, met.ErrClusterExists) {
		// The data directory holds a previous run's cluster: cold-start
		// it (servers, tables, assignment and data all recover from
		// disk) and drive the workload against the recovered state.
		fmt.Fprintf(os.Stderr, "metbench: %s holds an existing cluster; cold-starting it\n", *durableDir)
		cluster, err = met.OpenCluster(*durableDir)
	}
	if err != nil {
		log.Fatal(err)
	}
	res := &result{
		Workload: *workload, Sustained: *sustained, Ops: *ops, Records: *records,
		Servers: *servers, Concurrency: *concurrency, Durable: *durableDir != "",
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if *debugAddr != "" {
		srv, err := cluster.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug plane on http://%s/metrics\n", srv.Addr())
	}
	start := time.Now()
	switch *workload {
	case "tpcc":
		if *concurrency > 1 {
			fmt.Fprintln(os.Stderr, "metbench: -concurrency applies to YCSB only; tpcc runs single-threaded")
			res.Concurrency = 1
		}
		runTPCC(cluster, *ops, *seed, res)
	default:
		runYCSB(cluster, *workload, *ops, *records, *seed, *concurrency, *withMeT, res)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nwall time: %v\n", elapsed.Round(time.Millisecond))
	fmt.Println("cluster state:")
	for _, rs := range cluster.Master.Servers() {
		st := rs.Stats()
		fmt.Printf("  %s: regions=%d reads=%d writes=%d scans=%d locality=%.2f [%s]\n",
			st.Name, st.Regions, st.Requests.Reads, st.Requests.Writes, st.Requests.Scans, st.Locality, rs.Config())
		fmt.Printf("    engine: flushes=%d compactions=%d queue=%d stall=%.1fms write-amp=%.2f\n",
			st.Engine.Flushes, st.Engine.Compactions, st.CompactionBacklog,
			float64(st.Engine.StallNanos)/1e6, st.Engine.WriteAmplification)
		res.Cluster = append(res.Cluster, st)
	}
	total := sumStats(res.Cluster)
	res.ServerStats = total
	fmt.Printf("engine totals: flushes=%d compactions=%d compacted=%dKB stall=%.1fms write-amp=%.2f budget-wait=%.1fms\n",
		total.Engine.Flushes, total.Engine.Compactions, total.Engine.CompactedBytes>>10,
		float64(total.Engine.StallNanos)/1e6, total.Engine.WriteAmplification,
		float64(total.Compaction.Budget.WaitNanos)/1e6)
	fmt.Printf("replication totals: shipped=%d files (%dKB), retired=%d, syncs=%d, failures=%d\n",
		total.Replication.FilesShipped, total.Replication.BytesShipped>>10, total.Replication.FilesRetired,
		total.Replication.Syncs, total.Replication.Failures)
	if wal := total.WAL; wal.Appends > 0 {
		fmt.Printf("wal totals: appends=%d sync-rounds=%d writes/fsync=%.2f (%dKB, %d segments)\n",
			wal.Appends, wal.SyncRounds, total.WritesPerFsync, wal.Bytes>>10, wal.Segments)
	}
	printLatencyTable(&total.Latency)
	if *slowlog > 0 {
		slow := cluster.Master.SlowOps()
		fmt.Printf("slow ops (>= %v): %d total, %d retained\n", *slowlog, total.SlowOps, len(slow))
		show := slow
		if len(show) > 10 {
			show = show[len(show)-10:]
		}
		for _, op := range show {
			fmt.Printf("  %-6s %s/%s %v", op.Op, op.Table, op.Key, op.Total.Round(time.Microsecond))
			for _, sp := range op.Spans {
				fmt.Printf(" %s=%v", sp.Stage, sp.Dur.Round(time.Microsecond))
			}
			fmt.Println()
		}
	}
	if *jsonOut != "" {
		writeResultJSON(*jsonOut, res)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if *sustained && res.Durable && total.Replication.Failures != 0 {
		log.Fatalf("metbench: %d replication failures (last: %s); a sustained durable run must ship without any",
			total.Replication.Failures, total.Replication.LastFailure)
	}
}

// printLatencyTable renders the percentile table on stdout, one row per
// class that recorded anything.
func printLatencyTable(lat *hbase.LatencyStats) {
	fmt.Println("latency (cluster-wide):")
	fmt.Printf("  %-16s %10s %12s %12s %12s %12s %12s %12s\n",
		"class", "count", "mean", "p50", "p95", "p99", "p999", "max")
	for _, c := range lat.Classes() {
		if c.Snap.Count() == 0 {
			continue
		}
		s := c.Snap.Summary()
		fmt.Printf("  %-16s %10d %12v %12v %12v %12v %12v %12v\n",
			c.Name, s.Count,
			time.Duration(s.Mean).Round(time.Microsecond),
			time.Duration(s.P50).Round(time.Microsecond),
			time.Duration(s.P95).Round(time.Microsecond),
			time.Duration(s.P99).Round(time.Microsecond),
			time.Duration(s.P999).Round(time.Microsecond),
			time.Duration(s.Max).Round(time.Microsecond))
	}
}

// finish fills the timing-derived fields from the measured run phase
// (loading is excluded).
func (r *result) finish(elapsed time.Duration) {
	r.WallSeconds = elapsed.Seconds()
	if r.Completed > 0 {
		r.NsPerOp = float64(elapsed.Nanoseconds()) / float64(r.Completed)
		r.OpsPerSec = float64(r.Completed) / elapsed.Seconds()
	}
}

// valueBytes is the benchmark value size; the sustained scenario raises
// it so a short run moves enough bytes to keep compaction busy.
var valueBytes = 128

// workloadSpec resolves a paper workload letter, sized for the bench.
func workloadSpec(letter string, records int64) *ycsb.Workload {
	for _, w := range ycsb.PaperWorkloads() {
		if w.Name == letter {
			w.RecordCount = records
			w.FieldLengthBytes = valueBytes
			return &w
		}
	}
	fmt.Fprintf(os.Stderr, "metbench: unknown workload %q\n", letter)
	os.Exit(2)
	return nil
}

// runYCSB loads one paper workload and drives it from concurrency
// closed-loop client goroutines (1 is the sequential driver — same code)
// in ten batches; with -met the controller takes a monitoring sample,
// and possibly reconfigures the cluster, between batches, while no
// operation is in flight.
func runYCSB(cluster *met.Cluster, letter string, ops int, records int64, seed uint64, concurrency int, withMeT bool, res *result) {
	spec := workloadSpec(letter, records)
	runner, err := ycsb.NewRunner(*spec, cluster.Client, concurrency, seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := runner.CreateTable(cluster.Master); err != nil && !errors.Is(err, met.ErrTableExists) {
		log.Fatal(err)
	}
	fmt.Printf("loading %d records into %s (%d loaders)...\n", records, spec.TableName(), concurrency)
	if err := runner.Load(0); err != nil {
		log.Fatal(err)
	}

	var ctrl *met.Controller
	if withMeT {
		params := met.DefaultParams()
		params.MinSamples = 2
		params.MinNodes = len(cluster.Master.Servers())
		params.MaxNodes = params.MinNodes
		ctrl = met.NewController(cluster, params, 100)
		ctrl.Tick()
		ctrl.Monitor.Reset()
	}
	fmt.Printf("running %d operations of Workload%s (%s) across %d goroutines...\n", ops, letter, spec.Scenario, concurrency)
	batch := max(ops/10, 1)
	start := time.Now()
	for done := 0; done < ops; done += batch {
		if err := runner.Run(min(batch, ops-done)); err != nil {
			log.Fatal(err)
		}
		if ctrl != nil {
			ctrl.Tick()
		}
	}
	elapsed := time.Since(start)
	res.Completed = runner.TotalCompleted()
	res.Errors = runner.Errors()
	res.Transient = runner.Transient()
	res.finish(elapsed)
	fmt.Printf("completed: %d ops, %d errors, %.0f ops/sec\n", res.Completed, res.Errors, res.OpsPerSec)
	if res.Transient > 0 {
		fmt.Printf("  (%d ops dropped on topology churn)\n", res.Transient)
	}
	res.PerOp = make(map[string]int64)
	res.PerOpNs = make(map[string]float64)
	res.ClientLatency = make(map[string]obs.LatencySummary)
	for op, s := range runner.OpLatencies() {
		fmt.Printf("  %-7s %d (mean %.0f ns/op, p99 %v)\n",
			op, s.Count, s.Mean, time.Duration(s.P99).Round(time.Microsecond))
		res.PerOp[op.String()] = s.Count
		res.PerOpNs[op.String()] = s.Mean
		res.ClientLatency[op.String()] = s
	}
	if ctrl != nil {
		fmt.Printf("MeT: %d decisions, %d actuations\n", ctrl.Decisions(), ctrl.Actuations())
		if err := ctrl.Err(); err != nil {
			log.Fatal(err)
		}
	}
}

// runColdStart is the whole-cluster recovery proof: acknowledged writes
// land across two tables and every server, one region moves mid-run,
// the cluster is hard-stopped (no flush, no clean close — the on-disk
// state of a process kill) and reopened from the data directory alone.
// Every acknowledged write must read back through normal client routing
// on the reopened cluster, the recovered layout must match the
// pre-crash one exactly, and the moved region must compact on its
// destination server's pool. Any violation exits non-zero, so CI can
// run this as a per-PR gate.
func runColdStart(dataDir string, cfg met.ServerConfig, servers, ops int, seed uint64, jsonOut string) {
	if servers < 3 {
		fmt.Fprintln(os.Stderr, "metbench: -coldstart raises -servers to 3 (the acceptance floor)")
		servers = 3
	}
	// A small heap keeps flushes happening at bench volumes, so recovery
	// exercises SSTables and WAL tails, not just one big memstore replay.
	cfg.HeapBytes = 1 << 20
	cluster, err := met.NewClusterConfig(servers, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m, c := cluster.Master, cluster.Client
	bootstrapTables(m)
	acked := newAckLog(seed)
	fmt.Printf("coldstart: writing %d rows across %d tables on %d servers...\n", ops, len(scenarioTables), servers)
	acked.write(c, ops/2, "v")

	// Move one region so recovery must also prove the moved region's
	// directory, assignment and compactor attribution survive. The
	// region must actually hold rows, or the whole move check is
	// vacuous.
	tbl, _ := m.Table("users")
	movedRegion := tbl.Regions()[0]
	moved := movedRegion.Name()
	if movedRegion.DataBytes() == 0 {
		log.Fatalf("metbench: coldstart: region %s chosen for the move holds no data", moved)
	}
	src, _ := m.HostOf(moved)
	var dst string
	for _, rs := range m.Servers() {
		if rs.Name() != src {
			dst = rs.Name()
			break
		}
	}
	if err := m.MoveRegion(moved, dst); err != nil {
		log.Fatal(err)
	}
	acked.write(c, ops-ops/2, "moved")

	preAssign := m.Assignment()
	preTables := m.Tables()
	// Rows must genuinely span >= 3 servers, or the whole-cluster claim
	// is weaker than advertised.
	hosts := make(map[string]bool)
	for _, tn := range scenarioTables {
		tb, _ := m.Table(tn)
		for _, r := range tb.Regions() {
			if r.DataBytes() > 0 {
				hosts[preAssign[r.Name()]] = true
			}
		}
	}
	if len(hosts) < 3 {
		log.Fatalf("metbench: coldstart: rows span %d servers, want >= 3", len(hosts))
	}
	fmt.Printf("coldstart: hard-stopping the cluster (moved %s %s -> %s)...\n", moved, src, dst)
	m.HardStop()

	reopened, err := met.OpenCluster(dataDir)
	if err != nil {
		log.Fatalf("metbench: coldstart reopen: %v", err)
	}
	m2 := reopened.Master
	if got := m2.Tables(); !reflect.DeepEqual(got, preTables) {
		log.Fatalf("metbench: coldstart tables %v != pre-crash %v", got, preTables)
	}
	if got := m2.Assignment(); !reflect.DeepEqual(got, preAssign) {
		log.Fatalf("metbench: coldstart assignment %v != pre-crash %v", got, preAssign)
	}
	acked.mustVerify(reopened.Client, "coldstart")
	// The moved region must be serviced by its destination's pool — and
	// the compaction must be real I/O, not an empty-store no-op. The
	// recovered rows may all sit in the replayed memstore, so flush
	// first: the major compaction then has at least one SSTable to
	// rewrite.
	dstRS, err := m2.Server(dst)
	if err != nil {
		log.Fatal(err)
	}
	var movedStore *kv.Store
	for _, r := range dstRS.Regions() {
		if r.Name() == moved {
			movedStore = r.Store()
		}
	}
	if movedStore == nil {
		log.Fatalf("metbench: coldstart: moved region %s not hosted on destination %s", moved, dst)
	}
	if err := movedStore.Flush(); err != nil {
		log.Fatal(err)
	}
	if movedStore.NumFiles() == 0 {
		log.Fatalf("metbench: coldstart: moved region %s recovered no data to compact", moved)
	}
	before := dstRS.CompactionStats()
	if _, err := dstRS.MajorCompact(moved); err != nil {
		log.Fatalf("metbench: coldstart major compact on destination: %v", err)
	}
	after := dstRS.CompactionStats()
	if after.Compactions <= before.Compactions || after.BytesIn <= before.BytesIn {
		log.Fatalf("metbench: coldstart: moved region did not really compact on destination pool (%d -> %d compactions, %d -> %d bytes)",
			before.Compactions, after.Compactions, before.BytesIn, after.BytesIn)
	}
	if n := movedStore.NumFiles(); n != 1 {
		log.Fatalf("metbench: coldstart: major compaction left %d files, want 1", n)
	}
	fmt.Printf("coldstart: OK — %d acknowledged rows verified, layout recovered, moved region compacted on %s\n", len(acked.rows), dst)
	if jsonOut != "" {
		writeResultJSON(jsonOut, &result{
			Workload: "coldstart", Ops: ops, Servers: servers, Durable: true,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Completed: int64(len(acked.rows)),
		})
	}
}

// runFailover is the replica-recovery proof: acknowledged rows land
// across two tables and every server with replication factor 2, every
// store is cleanly flushed and replication quiesced, then one server is
// hard-killed AND its primary region directories are renamed away
// (simulating its disk dying with it). Master.RecoverServer must reopen
// the dead server's regions on the followers holding their replica
// SSTables — provably from the copies alone — report exactly zero lost
// writes, and every acknowledged row must read back through normal
// client routing. The cluster must then keep serving, and a full cold
// start of the recovered layout must succeed. Any violation exits
// non-zero, so CI runs this as a per-PR gate.
func runFailover(dataDir string, cfg met.ServerConfig, servers, ops int, seed uint64, jsonOut string) {
	if servers < 3 {
		fmt.Fprintln(os.Stderr, "metbench: -failover raises -servers to 3 (quorum for replication factor 2 plus a survivor)")
		servers = 3
	}
	// Small heap: flushes produce real SSTables for replication to ship
	// at bench volumes.
	cfg.HeapBytes = 1 << 20
	cluster, err := met.NewClusterConfig(servers, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m, c := cluster.Master, cluster.Client
	bootstrapTables(m)
	acked := newAckLog(seed)
	fmt.Printf("failover: writing %d rows across %d tables on %d servers (replication=2)...\n",
		ops, len(scenarioTables), servers)
	acked.write(c, ops, "v")

	// killAndRecover hard-kills the server hosting the most regions,
	// takes its primary directories (and, withWAL, its shared WAL) with
	// it, fails it over and insists on a zero-loss report.
	killAndRecover := func(phase string, withWAL bool) *hbase.RecoveryReport {
		name, regions := pickVictim(m.Assignment())
		victim, err := m.Server(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("failover: hard-killing %s (%d regions, %s) and quarantining its disk...\n", name, len(regions), phase)
		victim.Shutdown()
		walOf := ""
		if withWAL {
			walOf = name
		}
		quarantine(dataDir, regions, walOf)
		report, err := m.RecoverServer(name)
		if err != nil {
			log.Fatalf("metbench: failover RecoverServer (%s): %v", phase, err)
		}
		for _, rec := range report.Regions {
			fmt.Printf("failover: %s -> %s on %s (%d replica SSTables, %d tail records replayed, %d lost)\n",
				rec.Region, rec.NewRegion, rec.Source, rec.ReplicaFiles, rec.TailWrites, rec.LostWrites)
		}
		if report.LostWrites != 0 {
			log.Fatalf("metbench: failover (%s) lost %d acknowledged writes (report %+v)",
				phase, report.LostWrites, report)
		}
		return report
	}

	// Phase 1 — clean flush + replication barrier: after this, losing any
	// single server with its primary directories must lose nothing, and
	// recovery must come from the replica SSTables.
	for _, rs := range m.Servers() {
		for _, r := range rs.Regions() {
			if err := r.Store().Flush(); err != nil {
				log.Fatal(err)
			}
		}
	}
	m.QuiesceReplication()
	report := killAndRecover("clean flush", false)
	for _, rec := range report.Regions {
		if rec.ReplicaFiles == 0 {
			log.Fatalf("metbench: failover: region %s recovered with zero replica files — nothing was shipped", rec.Region)
		}
	}
	acked.mustVerify(c, "failover")
	// The cluster keeps serving after the failover...
	if err := c.Put("users", "zz-post-failover", []byte("alive")); err != nil {
		log.Fatalf("metbench: failover: cluster dead after recovery: %v", err)
	}

	// Phase 2 — hot-memstore kill: write more acknowledged rows and kill
	// a second server WITHOUT flushing, taking its primary directories
	// AND its shared WAL with it. The replicas' SSTables cannot cover the
	// memstore, so zero loss here is the tail-streaming proof: the
	// replicator shipped the durable-but-unflushed WAL tail to the
	// followers, and RecoverServer replayed it. After a replication
	// quiesce the unsynced window is empty, so loss must be exactly zero.
	hotOps := max(ops/4, 100)
	fmt.Printf("failover: phase 2 — writing %d more rows, killing a server with a hot (unflushed) memstore...\n", hotOps)
	acked.write(c, hotOps, "hot")
	m.QuiesceReplication()
	live := sumStats(m.Stats()) // the report's snapshot: every server still up
	report2 := killAndRecover("hot memstore", true)
	tailWrites := 0
	for _, rec := range report2.Regions {
		tailWrites += rec.TailWrites
	}
	if tailWrites == 0 {
		log.Fatal("metbench: hot-memstore failover replayed no tail records — the unflushed writes were recovered from somewhere they should not exist")
	}
	acked.mustVerify(c, "hot-memstore failover")

	// ...and the recovered layout survives a full cold start.
	m.HardStop()
	reopened, err := met.OpenCluster(dataDir)
	if err != nil {
		log.Fatalf("metbench: failover cold start after recovery: %v", err)
	}
	acked.mustVerify(reopened.Client, "failover+coldstart")
	fmt.Printf("failover: OK — %d acknowledged rows verified (replica SSTables + shipped WAL tail), zero loss, layout cold-starts\n", len(acked.rows))
	if jsonOut != "" {
		writeResultJSON(jsonOut, &result{
			Workload: "failover", Ops: ops, Servers: servers, Durable: true,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Completed:           int64(len(acked.rows)),
			LostWrites:          report.LostWrites,
			LostWritesUnflushed: report2.LostWrites,
			ServerStats:         live,
		})
	}
	reopened.Master.HardStop()
}

func runTPCC(cluster *met.Cluster, txs int, seed uint64, res *result) {
	cfg := tpcc.Small()
	cfg.Warehouses = 3
	cfg.Items = 300
	loader := &tpcc.Loader{Cfg: cfg, Client: cluster.Client}
	if err := loader.CreateTables(cluster.Master, 1); err != nil && !errors.Is(err, met.ErrTableExists) {
		log.Fatal(err)
	}
	rows, err := loader.Load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows (%d warehouses)\n", rows, cfg.Warehouses)
	driver := tpcc.NewDriver(tpcc.NewExecutor(cfg, cluster.Client, sim.NewRNG(seed)))
	fmt.Printf("running %d transactions...\n", txs)
	start := time.Now()
	if err := driver.Run(txs); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	tr := driver.Result()
	fmt.Printf("completed: %d txs (%.1f%% read-only), %d errors\n",
		tr.Total(), 100*tr.ReadOnlyFraction(), tr.Errors)
	res.Completed = int64(tr.Total())
	res.Errors = int64(tr.Errors)
	res.PerOp = make(map[string]int64)
	for _, tx := range []tpcc.TxType{tpcc.TxNewOrder, tpcc.TxPayment, tpcc.TxOrderStatus, tpcc.TxDelivery, tpcc.TxStockLevel} {
		fmt.Printf("  %-13s %d\n", tx, tr.Completed[tx])
		res.PerOp[tx.String()] = int64(tr.Completed[tx])
	}
	res.finish(elapsed)
}
