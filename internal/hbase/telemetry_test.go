package hbase

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"met/internal/hdfs"
	"met/internal/kv"
	"met/internal/metrics"
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
	if _, err := m.AddServer("rs0", cfg); err != nil {
		t.Fatal(err)
	}
	c := NewClient(m)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	drive(t, c, "t", 70) // 140 point ops + 1 scan, ring holds 128

	rs, err := m.Server("rs0")
	if err != nil {
		t.Fatal(err)
	}
	if total := rs.SlowOpsTotal(); total != 141 {
		t.Fatalf("slow-op total = %d, want 141", total)
	}
	ops := rs.SlowOps()
	if len(ops) != obs.DefaultSlowLogSize {
		t.Fatalf("ring retained %d ops, want capacity %d", len(ops), obs.DefaultSlowLogSize)
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
	if agg := m.SlowOps(); len(agg) != obs.DefaultSlowLogSize {
		t.Fatalf("master aggregation returned %d ops, want %d", len(agg), obs.DefaultSlowLogSize)
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
	host := rs.hostFor(region.Name())
	host.Budget = compacting
	region.Store().SetHost(host)
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

// TestSystemUsage pins the one derivation of a node's CPU, I/O wait
// and memory from two snapshots of its server: each input alone, the
// cap at 1, a first snapshot measured from the server's start, a new
// server under an old name, and a sum that fell counted whole.
func TestSystemUsage(t *testing.T) {
	started := time.Unix(1000, 0)
	at := started.Add(10 * time.Second)
	// lat records each duration once into a fresh histogram.
	lat := func(ds ...time.Duration) obs.Snapshot {
		var h obs.Histogram
		for _, d := range ds {
			h.Record(d)
		}
		return h.Snapshot()
	}
	// stats is one snapshot of a 10-handler, 1000-byte-heap server.
	stats := func(at time.Time, edit func(*ServerStats)) ServerStats {
		st := ServerStats{At: at, Started: started, Handlers: 10, HeapBytes: 1000}
		if edit != nil {
			edit(&st)
		}
		return st
	}
	prev := stats(at, func(st *ServerStats) {
		st.Latency.Get = lat(time.Second)
		st.Latency.Fsync = lat(time.Second)
		st.Engine.StallNanos = int64(time.Second)
	})
	later := at.Add(time.Second)
	for _, tc := range []struct {
		name string
		prev ServerStats
		cur  ServerStats
		want metrics.SystemMetrics
	}{
		{"cpu is op time over handlers and period", prev, stats(later, func(st *ServerStats) {
			st.Latency.Get = lat(time.Second, time.Second)
			st.Latency.Put = lat(500 * time.Millisecond)
			st.Latency.Scan = lat(500 * time.Millisecond)
			st.Latency.Fsync, st.Engine.StallNanos = prev.Latency.Fsync, prev.Engine.StallNanos
		}), metrics.SystemMetrics{CPUUtilization: 0.2}},
		{"io wait is fsync, flush and stall time over the period", prev, stats(later, func(st *ServerStats) {
			st.Latency.Get = prev.Latency.Get
			st.Latency.Fsync = lat(time.Second, 100*time.Millisecond)
			st.Latency.Flush = lat(200 * time.Millisecond)
			st.Engine.StallNanos = int64(1300 * time.Millisecond)
		}), metrics.SystemMetrics{IOWait: 0.6}},
		{"memory is memstore and cache over heap", prev, stats(later, func(st *ServerStats) {
			st.Latency.Get, st.Latency.Fsync, st.Engine.StallNanos = prev.Latency.Get, prev.Latency.Fsync, prev.Engine.StallNanos
			st.Engine.MemstoreCurrent, st.CacheBytes = 100, 200
		}), metrics.SystemMetrics{MemoryUsage: 0.3}},
		{"each is capped at 1", prev, stats(later, func(st *ServerStats) {
			st.Latency.Get = lat(time.Second, 20*time.Second)
			st.Latency.Fsync = lat(time.Second, 2*time.Second)
			st.Engine.StallNanos = prev.Engine.StallNanos
			st.Engine.MemstoreCurrent, st.CacheBytes = 600, 600
		}), metrics.SystemMetrics{CPUUtilization: 1, IOWait: 1, MemoryUsage: 1}},
		{"a first snapshot measures from the server's start", ServerStats{}, prev,
			metrics.SystemMetrics{CPUUtilization: 0.01, IOWait: 0.2}},
		{"a new server under an old name measures from its start", prev, stats(at, func(st *ServerStats) {
			st.Started = at.Add(-2 * time.Second)
			st.Latency.Get = lat(2 * time.Second)
		}), metrics.SystemMetrics{CPUUtilization: 0.1}},
		{"a sum that fell counts whole", prev, stats(later, func(st *ServerStats) {
			st.Latency.Get = lat(500 * time.Millisecond)
			st.Latency.Fsync = prev.Latency.Fsync
			st.Engine.StallNanos = int64(300 * time.Millisecond)
		}), metrics.SystemMetrics{CPUUtilization: 0.05, IOWait: 0.3}},
	} {
		got := SystemUsage(tc.prev, tc.cur)
		near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
		if !near(got.CPUUtilization, tc.want.CPUUtilization) || !near(got.IOWait, tc.want.IOWait) || !near(got.MemoryUsage, tc.want.MemoryUsage) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestMoveLeavesIOWaitWithItsServer: a region's store carries its
// data when it moves, but its history happened on the old server.
// Across a move and nothing else, neither server's I/O wait may move,
// nor any cumulative engine counter: the destination must not take in
// the moved store's past flushes, compactions, user bytes, cache hits
// or stall time, nor the source lose them.
func TestMoveLeavesIOWaitWithItsServer(t *testing.T) {
	m := NewMaster(hdfs.NewNamenode(2))
	cfg := DefaultServerConfig()
	cfg.HeapBytes = 64 << 10 // a flush every few KB per region
	cfg.BlockBytes = 1 << 10 // blocks the small cache can hold
	for _, name := range []string{"rs0", "rs1"} {
		if _, err := m.AddServer(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(m)
	tbl, err := m.CreateTable("t", []string{"k1", "k2", "k3"})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 512)
	for i := 0; i < 400; i++ {
		if err := c.Put("t", fmt.Sprintf("k%d%03d", i%4, i), value); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range tbl.Regions() {
		host, _ := m.HostOf(r.Name())
		rs, _ := m.Server(host)
		if _, err := rs.MajorCompact(r.Name()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 800; i++ {
		if _, err := c.Get("t", fmt.Sprintf("k%d%03d", i/2%4, i/2)); err != nil { // twice each: a cache hit
			t.Fatal(err)
		}
	}
	region := tbl.Regions()[0]
	src, _ := m.HostOf(region.Name())
	dst := "rs0"
	if src == "rs0" {
		dst = "rs1"
	}
	// Let background compactions settle, so nothing but the move acts
	// between the two snapshots.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		idle := true
		for _, rs := range m.Servers() {
			idle = idle && rs.Stats().CompactionBacklog == 0
		}
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background compactions never settled")
		}
	}
	before := map[string]ServerStats{}
	for _, rs := range m.Servers() {
		st := rs.Stats()
		if e := st.Engine; st.Regions < 2 || st.Latency.Flush.Count() == 0 || e.Flushes == 0 || e.Compactions == 0 || e.UserBytes == 0 || e.CacheHits == 0 {
			t.Fatalf("%s: %d regions, engine %+v; want 2+ regions with flushes, compactions, user bytes and cache hits", st.Name, st.Regions, e)
		}
		before[st.Name] = st
	}
	if err := m.MoveRegion(region.Name(), dst); err != nil {
		t.Fatal(err)
	}
	for _, rs := range m.Servers() {
		st := rs.Stats()
		if got := SystemUsage(before[st.Name], st).IOWait; got != 0 {
			t.Errorf("%s: I/O wait across the move = %v, want 0", st.Name, got)
		}
		b, a := before[st.Name].Engine, st.Engine
		for _, c := range []struct {
			name          string
			before, after int64
		}{
			{"flushes", b.Flushes, a.Flushes},
			{"compactions", b.Compactions, a.Compactions},
			{"user bytes", b.UserBytes, a.UserBytes},
			{"cache hits", b.CacheHits, a.CacheHits},
			{"stall ns", b.StallNanos, a.StallNanos},
		} {
			if c.before != c.after {
				t.Errorf("%s: %s went from %d to %d across the move", st.Name, c.name, c.before, c.after)
			}
		}
	}
}

// TestStallUnderWayReadsIOWait: a sample taken inside one long write
// stall, with nothing else waiting on I/O, reads the stall as I/O wait
// at once rather than only after the stall ends.
func TestStallUnderWayReadsIOWait(t *testing.T) {
	m := NewMaster(hdfs.NewNamenode(2))
	cfg := DefaultServerConfig()
	cfg.Compaction = CompactionConfig{MaxStoreFiles: 1, StallStoreFiles: 2}
	rs, err := m.AddServer("rs0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	region := tbl.Regions()[0]
	// The compaction that would release the stall parks on its budget.
	held := newGate()
	host := rs.hostFor(region.Name())
	host.Budget = held
	store := region.Store()
	store.SetHost(host)
	for i := 0; i < 2; i++ {
		if err := store.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	<-held.entered
	done := make(chan error, 1)
	go func() { done <- store.Put("stalled", []byte("v")) }()
	for deadline := time.Now().Add(10 * time.Second); rs.Stats().Engine.StalledWrites == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never stalled")
		}
	}
	prev := rs.Stats()
	time.Sleep(50 * time.Millisecond)
	cur := rs.Stats()
	close(held.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := SystemUsage(prev, cur).IOWait; got < 0.5 {
		t.Fatalf("I/O wait inside a stall = %v, want the stall's share of the period (about 1)", got)
	}
}
