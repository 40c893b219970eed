package hbase

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"met/internal/hdfs"
	"met/internal/kv"
	"met/internal/obs"
)

// drive issues a mixed workload so every latency histogram has samples.
func drive(t *testing.T, c *Client, table string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%04d", i)
		if err := c.Put(table, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(table, key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Scan(table, "", "", -1); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyStatsRecorded(t *testing.T) {
	m, c := newCluster(t, 2)
	if _, err := m.CreateTable("t", []string{"key0050"}); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 100)

	var get, put, scan int64
	for _, rs := range m.Servers() {
		ls := rs.LatencyStats()
		get += ls.Get.Count()
		put += ls.Put.Count()
		scan += ls.Scan.Count()
		if ls.Get.Count() > 0 && ls.Get.Percentile(0.99) <= 0 {
			t.Fatalf("%s: get p99 = %d with %d samples", rs.Name(), ls.Get.Percentile(0.99), ls.Get.Count())
		}
	}
	if get != 100 || put != 100 {
		t.Fatalf("server-level counts get=%d put=%d, want 100/100", get, put)
	}
	if scan == 0 {
		t.Fatal("no scan samples recorded")
	}

	// Region-level histograms must account for the same ops.
	var regGet int64
	for _, st := range m.Stats() {
		for _, r := range st.PerRegion {
			regGet += r.Get.Count()
		}
	}
	if regGet != 100 {
		t.Fatalf("region-level get count = %d, want 100", regGet)
	}
}

func TestRegionHistogramsSurviveMove(t *testing.T) {
	m, c := newCluster(t, 2)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 10)
	tbl, err := m.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	region := tbl.Regions()[0]
	src, ok := m.HostOf(region.Name())
	if !ok {
		t.Fatalf("region %s has no host", region.Name())
	}
	dst := "rs0"
	if src == "rs0" {
		dst = "rs1"
	}
	snap := region.lat.get.Snapshot()
	before := snap.Count()
	if before == 0 {
		t.Fatal("no get samples before move")
	}
	if err := m.MoveRegion(region.Name(), dst); err != nil {
		t.Fatal(err)
	}
	snap = region.lat.get.Snapshot()
	if got := snap.Count(); got != before {
		t.Fatalf("region get count changed across move: %d -> %d", before, got)
	}
	if _, err := c.Get("t", "key0001"); err != nil {
		t.Fatal(err)
	}
	snap = region.lat.get.Snapshot()
	if got := snap.Count(); got != before+1 {
		t.Fatalf("region histogram not recording after move: %d, want %d", got, before+1)
	}
}

func TestSlowOpCaptureAndRing(t *testing.T) {
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	cfg := DefaultServerConfig()
	cfg.SlowOpThreshold = time.Nanosecond // everything is slow
	cfg.SlowOpLogSize = 8
	if _, err := m.AddServer("rs0", cfg); err != nil {
		t.Fatal(err)
	}
	c := NewClient(m)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 20) // 40 point ops + 1 scan, ring holds 8

	rs, err := m.Server("rs0")
	if err != nil {
		t.Fatal(err)
	}
	if total := rs.SlowOpsTotal(); total != 41 {
		t.Fatalf("slow-op total = %d, want 41", total)
	}
	ops := rs.SlowOps()
	if len(ops) != 8 {
		t.Fatalf("ring retained %d ops, want capacity 8", len(ops))
	}
	for _, op := range ops {
		if op.Total <= 0 {
			t.Fatalf("slow op %s/%s has non-positive total %d", op.Op, op.Key, op.Total)
		}
		var hasRoute bool
		for _, sp := range op.Spans {
			if sp.Stage == "route" {
				hasRoute = true
			}
		}
		if !hasRoute {
			t.Fatalf("slow op %s/%s missing route span: %+v", op.Op, op.Key, op.Spans)
		}
	}
	// The last retained ops include the scan (it was the final op).
	last := ops[len(ops)-1]
	if last.Op != "scan" {
		t.Fatalf("last retained op = %q, want scan", last.Op)
	}

	// Master-level aggregation sees the same entries.
	if agg := m.SlowOps(); len(agg) != 8 {
		t.Fatalf("master aggregation returned %d ops, want 8", len(agg))
	}
}

func TestSlowOpSpansIncludeStoreStages(t *testing.T) {
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	cfg := DefaultServerConfig()
	cfg.SlowOpThreshold = time.Nanosecond
	if _, err := m.AddServer("rs0", cfg); err != nil {
		t.Fatal(err)
	}
	c := NewClient(m)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("t", "k"); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	rs, _ := m.Server("rs0")
	for _, op := range rs.SlowOps() {
		for _, sp := range op.Spans {
			stages[op.Op+"/"+sp.Stage] = true
		}
	}
	for _, want := range []string{"put/route", "put/memstore", "get/route", "get/memstore"} {
		if !stages[want] {
			t.Fatalf("missing span %q in slow ops; have %v", want, stages)
		}
	}
}

func TestMasterWriteMetrics(t *testing.T) {
	m, c := newCluster(t, 2)
	if _, err := m.CreateTable("t", []string{"key0050"}); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 100)

	var b strings.Builder
	mw := obs.NewMetricWriter(&b)
	m.WriteMetrics(mw)
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		`met_server_up{server="rs0"} 1`,
		`met_requests_total{server="rs0",op="read"}`,
		`met_op_latency_seconds{server="rs0",op="get",quantile="0.99"}`,
		`met_op_latency_seconds_count{server="rs0",op="put"}`,
		`met_region_op_latency_seconds{server=`,
		`met_flush_latency_seconds{server="rs0"`,
		`met_compaction_latency_seconds{server="rs1"`,
		`met_engine_cache_hit_ratio{server="rs0"}`,
		`met_locality{server="rs0"}`,
		"met_process_goroutines",
		"met_process_gc_cycles_total",
		"# TYPE met_op_latency_seconds summary",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("exposition missing %q\n---\n%s", want, page)
		}
	}

	// Health: all up, then one stopped.
	if err := m.Health(); err != nil {
		t.Fatalf("healthy cluster reported unhealthy: %v", err)
	}
	rs, _ := m.Server("rs1")
	rs.Stop()
	if err := m.Health(); err == nil || !strings.Contains(err.Error(), "rs1") {
		t.Fatalf("health with stopped rs1 = %v", err)
	}
	rs.Start()
}

func TestDebugPlaneEndToEnd(t *testing.T) {
	m, c := newCluster(t, 1)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 10)

	srv, err := obs.ServeDebug("127.0.0.1:0", m.DebugConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "met_requests_total") {
		t.Fatalf("/metrics: code=%d body=%.200s", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}

// gate is a kv.IOBudget (and a replication file-stack closure) that
// parks its caller until released: the seam that holds a background
// job in flight.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gate) wait() {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
}

func (g *gate) WaitBackground(int) { g.wait() }
func (g *gate) NoteForeground(int) {}

// TestStatsOneDefinition: with a pool compaction and a replica
// reconcile both held in flight, the backlog gauges on /metrics, the
// JSON report's fields and the struct all carry the one number
// Stats() derived: queued + in flight. (The /metrics gauges used to
// leave the in-flight part out.)
func TestStatsOneDefinition(t *testing.T) {
	m, c := newDurableCluster(t, 1, t.TempDir())
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 50)
	rs, _ := m.Server("rs0")
	region := rs.Regions()[0]
	if err := region.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	rs.QuiesceReplication()

	compacting, shipping := newGate(), newGate()
	region.Store().SetCompaction(compactorOf(rs), compacting, 0)
	compacted := make(chan error, 1)
	go func() {
		_, err := rs.MajorCompact(region.Name())
		compacted <- err
	}()
	rs.replicator.Track("held",
		func() ([]kv.ExportedFile, bool) { shipping.wait(); return nil, false },
		func() []string { return nil }, nil)
	rs.replicator.Notify("held")
	<-compacting.entered
	<-shipping.entered

	st := rs.Stats()
	close(compacting.release)
	close(shipping.release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	rs.replicator.Untrack("held")

	if st.Compaction.Running != 1 || st.Replication.Active != 1 {
		t.Fatalf("held jobs not in flight: compaction running=%d, replication active=%d",
			st.Compaction.Running, st.Replication.Active)
	}
	if want := st.Compaction.QueueDepth + st.Compaction.Running; st.CompactionBacklog != want {
		t.Fatalf("CompactionBacklog = %d, want queued+running = %d", st.CompactionBacklog, want)
	}
	if want := st.Replication.QueueDepth + st.Replication.Active; st.ReplicationBacklog != want {
		t.Fatalf("ReplicationBacklog = %d, want queued+active = %d", st.ReplicationBacklog, want)
	}

	var page strings.Builder
	WriteServerMetrics(obs.NewMetricWriter(&page), []ServerStats{st})
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		series, field string
		want          int
	}{
		{"met_engine_compaction_queue_depth", "compaction_backlog", st.CompactionBacklog},
		{"met_replication_queue_depth", "replication_backlog", st.ReplicationBacklog},
	} {
		sample := fmt.Sprintf("%s{server=\"rs0\"} %d\n", g.series, g.want)
		if !strings.Contains(page.String(), sample) {
			t.Errorf("/metrics lacks %q", sample)
		}
		if got := report[g.field]; got != float64(g.want) {
			t.Errorf("JSON %s = %v, want %d", g.field, got, g.want)
		}
	}
}
