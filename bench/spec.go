package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runSeconds is BENCHMARK.json's run_seconds: the length of the
// measured phase. A --trace 1 run splits it evenly between the
// multi-process phase and the traced pass, so both kinds of run take
// about runSeconds + 8 s. The contract gives 4 + 22 x 4 runs 3420 s
// including set-up and two builds, about 35 s a run, which is what
// keeps this at 20 and not the 30 + 20 the design asked for.
const runSeconds = 20

// metricDef declares one metric. bound, on end-to-end metrics only, is
// the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{name, unit, better, &bound}
}

// endToEnd is what a user of the cluster sees, measured on the
// multi-process topology with tracing off. Every workload reports every
// one and none can be 0, which is why the per-class latencies — absent
// from the workloads that lack the class — are declared per-layer. So
// are the tail percentiles p95_us and p99_us, by the issue's rule for a
// candidate that does not repeat within a tenth: with five processes on
// two cores of a shared host a tail is made of run-queue waits, and over
// ten seeds p95_us spread 12-31% and p99_us up to 44% (README.md,
// "Repeatability"). For the same reason memory gates on rss_mb, the
// median of the per-second resident sets (spread 2%), and the high-water
// mark rss_peak_mb (6-16% on write_heavy) is per-layer. Every bound is
// the contract's cap of 25%: the host's other tenants move every timing
// by up to a third for minutes at a stretch, which no counter in the
// guest shows.
var endToEnd = []metricDef{
	e2e("ops_per_s", "1/s", "higher", 0.25),
	e2e("p50_us", "us", "lower", 0.25),
	e2e("cpu_ms_per_kop", "ms", "lower", 0.25),
	e2e("rss_mb", "MB", "lower", 0.25),
	e2e("setup_s", "s", "lower", 0.25),
}

// perLayer is the budget: where the microseconds, bytes and background
// cycles go, by module. Reported by a --trace 1 run; 0 where a workload
// does not exercise the thing measured.
var perLayer = []metricDef{
	// Client-observed, multi-process topology: the tail of all ops, then
	// latency per op class.
	{"p95_us", "us", "lower", nil},
	{"p99_us", "us", "lower", nil},
	{"rss_peak_mb", "MB", "lower", nil},
	{"get_p50_us", "us", "lower", nil},
	{"get_p99_us", "us", "lower", nil},
	{"put_p50_us", "us", "lower", nil},
	{"put_p99_us", "us", "lower", nil},
	{"scan_p50_us", "us", "lower", nil},
	{"scan_p99_us", "us", "lower", nil},
	{"error_share", "ratio", "lower", nil},
	{"acked_lost", "count", "lower", nil},

	{"rpc.get_self_us", "us", "lower", nil},
	{"rpc.put_self_us", "us", "lower", nil},
	{"rpc.scan_self_us", "us", "lower", nil},
	{"rpc.allocs_per_get", "count", "lower", nil},
	{"rpc.allocs_per_put", "count", "lower", nil},
	{"rpc.alloc_bytes_per_scan", "B", "lower", nil},
	{"rpc.handler_get_mean_us", "us", "lower", nil},
	{"rpc.handler_put_mean_us", "us", "lower", nil},
	{"rpc.handler_scan_mean_us", "us", "lower", nil},
	{"rpc.wire_get_mean_us", "us", "lower", nil},
	{"rpc.wire_put_mean_us", "us", "lower", nil},

	{"hbase.get_self_us", "us", "lower", nil},
	{"hbase.put_self_us", "us", "lower", nil},
	{"hbase.scan_self_us", "us", "lower", nil},
	{"hbase.restart_ready_s", "s", "lower", nil},

	{"kv.get_us", "us", "lower", nil},
	{"kv.put_us", "us", "lower", nil},
	{"kv.scan_us", "us", "lower", nil},
	{"kv.cache_hit_ratio", "ratio", "higher", nil},
	{"kv.blocks_read_per_get", "count", "lower", nil},
	{"kv.filter_negatives_per_get", "count", "higher", nil},
	{"kv.scanned_entries_per_row", "count", "lower", nil},
	{"kv.flushes", "count", "lower", nil},
	{"kv.flush_p50_ms", "ms", "lower", nil},
	{"kv.stall_ms", "ms", "lower", nil},
	{"kv.stalled_writes", "count", "lower", nil},
	{"kv.write_amp", "ratio", "lower", nil},
	{"kv.store_files_end", "count", "lower", nil},

	{"durable.fsyncs_per_put", "ratio", "lower", nil},
	{"durable.wal_bytes_per_put", "B", "lower", nil},
	{"durable.fsync_mean_us", "us", "lower", nil},
	{"durable.fsync_p50_us", "us", "lower", nil},
	{"durable.fsync_p99_us", "us", "lower", nil},
	{"durable.wal_append_probe_us", "us", "lower", nil},
	{"durable.sstable_write_mb_s", "MB/s", "higher", nil},
	{"durable.block_load_us", "us", "lower", nil},
	{"durable.disk_bytes_per_user_byte", "ratio", "lower", nil},

	{"compaction.compactions", "count", "lower", nil},
	{"compaction.bytes_rewritten_per_user_byte", "ratio", "lower", nil},
	{"compaction.busy_share", "ratio", "lower", nil},
	{"compaction.budget_wait_ms", "ms", "lower", nil},
	{"compaction.conflicts", "count", "lower", nil},
	{"compaction.failures", "count", "lower", nil},
	{"compaction.queue_depth_end", "count", "lower", nil},

	{"replication.bytes_shipped_per_user_byte", "ratio", "lower", nil},
	{"replication.tail_ships_per_kput", "count", "lower", nil},
	{"replication.tail_ship_p50_ms", "ms", "lower", nil},
	{"replication.ship_p50_ms", "ms", "lower", nil},
	{"replication.failures", "count", "lower", nil},
	{"replication.quiesce_s", "s", "lower", nil},

	{"obs.record_ns", "ns", "lower", nil},
	{"client.gen_ns_per_op", "ns", "lower", nil},
	{"client.cpu_share", "ratio", "lower", nil},
	{"trace.ops_ratio", "ratio", "higher", nil},
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkSpec builds BENCHMARK.json from the tables above, so the
// file and the program cannot drift (bench_test.go compares them).
func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	return s
}

// declared lists the metrics a run's result line carries.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the contract's last line of standard output: the
// end-to-end metrics, or with trace the per-layer ones.
func (r *record) resultLine(trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range declared(trace) {
		metrics[def.Name] = value{r.Metrics[def.Name], def.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b)
}

// print writes the human-readable report: environment, every metric
// measured by name with its unit, and the checks.
func (r *record) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "== %s  seed %d  %gs  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "   commit %s  %s  nproc %d  GOMAXPROCS %d (each metnode %d)  clients %d (closed loop)\n",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.NodeProcs, e.Clients)
	fmt.Fprintf(w, "   %s; heap %d B/server, %d records x %d B, data dir on %s\n",
		e.Topology, e.HeapBytes, e.Records, e.ValueBytes, e.Filesystem)
	fmt.Fprintf(w, "   flush policy: %s\n   %s\n", e.FlushPolicy, e.LatencyScope)
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "-- %s\n", title)
		for _, def := range defs {
			fmt.Fprintf(w, "%-42s %14.4f %s\n", def.Name, r.Metrics[def.Name], def.Unit)
		}
	}
	section("end-to-end", endToEnd)
	if r.Trace {
		section("per-layer", perLayer)
	}
	fmt.Fprintf(w, "-- samples: all %d, get %d, put %d, scan %d (a p99 needs %d); medians over %d of %d one-second windows (stolen CPU <= %g)\n",
		int64(r.Metrics["samples"]), int64(r.Metrics["get_samples"]), int64(r.Metrics["put_samples"]), int64(r.Metrics["scan_samples"]), p99Samples,
		int64(r.Metrics["quiet_windows"]), int64(r.Metrics["windows"]), maxStealShare)
	for _, c := range r.Checks {
		fmt.Fprintln(w, c)
	}
}

// appendRecord adds the run to dir/<workload>.json — a JSON array of
// records, the format -compare reads — and, after a traced run, writes
// its spans to dir/<workload>.trace.jsonl.
func appendRecord(dir string, r *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, r.Workload+".json")
	records, err := loadRecords(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(append(records, r), "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, r.Workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for id, s := range r.spans {
		fmt.Fprintf(bw, `{"id":%d,"workload":%q,"op":%q,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			id, r.Workload, opNames[s.op], depthNames[s.depth], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadRecords reads one -out file, or every *.json in a directory.
func loadRecords(path string) ([]*record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var all []*record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var records []*record
		if err := json.Unmarshal(b, &records); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, records...)
	}
	return all, nil
}
