package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/ycsb"
)

// testConfig is the small-heap durable config the hbase tests use.
func testConfig(dataDir string) hbase.ServerConfig {
	return hbase.ServerConfig{
		HeapBytes: 1 << 20, BlockCacheFraction: 0.39, MemstoreFraction: 0.26,
		BlockBytes: 4 << 10, Handlers: 10, DataDir: dataDir,
	}
}

// cluster is an in-process networked cluster: a real MasterNode and
// real ServerNodes, each serving on its own localhost listener — the
// same wire a multi-process deployment uses, minus the fork/exec.
type cluster struct {
	dir     string
	mn      *MasterNode
	workers map[string]*ServerNode
	c       *Client
}

// startCluster bootstraps a durable cluster with one table "t"
// (in-process master), stops it, and reopens it as layout master +
// worker nodes over RPC.
func startCluster(t testing.TB, n int, splits []string) *cluster {
	t.Helper()
	return startClusterWith(t, n, func(m *hbase.Master) {
		if _, err := m.CreateTable("t", splits); err != nil {
			t.Fatal(err)
		}
	})
}

// startClusterWith is startCluster with the in-process phase handed to
// bootstrap: whatever it creates or writes through the live master is
// what the networked cluster recovers after the hard stop.
func startClusterWith(t testing.TB, n int, bootstrap func(m *hbase.Master)) *cluster {
	t.Helper()
	dir := t.TempDir()
	m, err := hbase.NewDurableMaster(hdfs.NewNamenode(2), dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), testConfig(dir)); err != nil {
			t.Fatal(err)
		}
	}
	bootstrap(m)
	m.HardStop()

	lm, err := hbase.OpenLayoutMaster(dir)
	if err != nil {
		t.Fatal(err)
	}
	mn := NewMasterNode(lm, io.Discard)
	if err := mn.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close(); lm.Close() })

	cl := &cluster{dir: dir, mn: mn, workers: make(map[string]*ServerNode)}
	for _, sn := range lm.ServerNames() {
		cl.workers[sn] = cl.startWorker(t, sn)
	}
	c, err := Dial(mn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl.c = c
	return cl
}

// startWorker runs the real worker startup flow over the wire:
// register for the manifest, open the server node, serve, re-register
// with the bound address.
func (cl *cluster) startWorker(t testing.TB, name string) *ServerNode {
	t.Helper()
	man, err := Register(cl.mn.Addr(), name, "")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := hbase.OpenServerNode(man)
	if err != nil {
		t.Fatal(err)
	}
	node := NewServerNode(rs, man.Epoch, io.Discard)
	if err := node.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := Register(cl.mn.Addr(), name, node.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close(); rs.Shutdown() })
	return node
}

// stubClient routes every key of table "t" to the stub server at addr,
// one attempt per operation within timeout.
func stubClient(addr string, timeout time.Duration) *Client {
	c := &Client{hc: &http.Client{}, Timeout: timeout}
	c.layout.Store(&layout{
		routes: hbase.NewRouteTable(1, []hbase.LayoutRegion{{Name: "r", Table: "t", Server: "stub"}}),
		addrs:  map[string]string{"stub": addr},
	})
	return c
}

// quarantine renames a dead worker's primary directories aside, like
// the hbase failover tests: recovery must succeed from replicas alone.
func quarantine(t *testing.T, dir string, rs *hbase.RegionServer) {
	t.Helper()
	for _, r := range rs.Regions() {
		p := hbase.RegionDataDir(dir, r.Name())
		if err := os.Rename(p, p+".quarantine"); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	w := hbase.ServerWALDir(dir, rs.Name())
	if err := os.Rename(w, w+".quarantine"); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// TestDataPlaneEndToEnd drives put/get/delete/scan through the wire
// across a 3-worker cluster with a split table (scan stitches regions
// hosted by different processes' servers).
func TestDataPlaneEndToEnd(t *testing.T) {
	cl := startCluster(t, 3, []string{"g", "p"})
	for i := 0; i < 60; i++ {
		if err := cl.c.Put("t", fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		v, err := cl.c.Get("t", fmt.Sprintf("k%04d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%04d: %q, %v", i, v, err)
		}
	}
	if _, err := cl.c.Get("t", "missing"); !errors.Is(err, hbase.ErrNotFound) {
		t.Fatalf("missing key: want ErrNotFound, got %v", err)
	}
	if err := cl.c.Delete("t", "k0000"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.c.Get("t", "k0000"); !errors.Is(err, hbase.ErrNotFound) {
		t.Fatalf("deleted key: want ErrNotFound, got %v", err)
	}
	// The split keys "g","p" put k* in one region; write across all
	// three regions and scan the full range to prove stitching.
	for _, k := range []string{"a1", "h1", "q1"} {
		if err := cl.c.Put("t", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cl.c.Scan("t", "", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 62 { // 60 k-rows - 1 deleted + 3 extra
		t.Fatalf("full scan: %d entries, want 62", len(entries))
	}
	if entries[0].Key != "a1" || entries[len(entries)-1].Key != "q1" {
		t.Fatalf("scan order: first %q last %q", entries[0].Key, entries[len(entries)-1].Key)
	}
	limited, err := cl.c.Scan("t", "", "", 5)
	if err != nil || len(limited) != 5 {
		t.Fatalf("limited scan: %d entries, %v", len(limited), err)
	}
}

// TestKilledWorkerFailoverReroutes kills a worker between the client's
// route and its request, recovers through the master, and proves the
// client re-routes transparently: connection-refused and stale-epoch
// both end in a refreshed layout and a served request.
func TestKilledWorkerFailoverReroutes(t *testing.T) {
	cl := startCluster(t, 3, []string{"m"})
	for i := 0; i < 40; i++ {
		if err := cl.c.Put("t", fmt.Sprintf("a%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := cl.c.Put("t", fmt.Sprintf("z%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.c.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Find the worker hosting the a* region and kill it un-gracefully:
	// the client's cached layout still routes a* straight at the corpse.
	region, _, err := cl.c.layout.Load().route("t", "a0000")
	if err != nil {
		t.Fatal(err)
	}
	victim := region.Server
	epochBefore := cl.c.layout.Load().routes.Epoch()
	preRecovery := cl.c.layout.Load()
	cl.workers[victim].Close()
	cl.workers[victim].RegionServer().Shutdown()
	quarantine(t, cl.dir, cl.workers[victim].RegionServer())

	// Before recovery, the stale route fails even after retries (the
	// layout still names the dead worker): the client reports the
	// reroute failure rather than hanging.
	shortTimeout, err := Dial(cl.mn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	shortTimeout.Timeout = 2 * time.Second
	shortTimeout.Retries = 1
	if _, err := shortTimeout.Get("t", "a0000"); err == nil {
		t.Fatal("get served by a dead worker with no recovery run")
	}

	reply, err := cl.c.Recover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Regions) == 0 {
		t.Fatal("recovery moved no regions")
	}
	for _, rr := range reply.Regions {
		if rr.Spec.Source == victim {
			t.Fatalf("region adopted onto the dead worker: %+v", rr.Spec)
		}
		if rr.Report.ReplicaFiles == 0 && rr.Report.TailWrites == 0 {
			t.Fatalf("adoption recovered nothing for %s", rr.Spec.Region)
		}
	}
	if reply.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance: %d -> %d", epochBefore, reply.Epoch)
	}

	// A client still holding the PRE-recovery layout: its first call
	// routes to the dead address, gets connection-refused, refreshes,
	// and lands on the adopter. (Quiesced before the kill, so zero loss.)
	stale, err := Dial(cl.mn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	stale.layout.Store(preRecovery)
	for i := 0; i < 40; i++ {
		for _, k := range []string{fmt.Sprintf("a%04d", i), fmt.Sprintf("z%04d", i)} {
			if v, err := stale.Get("t", k); err != nil || string(v) != "v" {
				t.Fatalf("%s after failover: %q, %v", k, v, err)
			}
		}
	}
	if stale.layout.Load().routes.Epoch() < reply.Epoch {
		t.Fatalf("client never refreshed past the recovery epoch: %d < %d", stale.layout.Load().routes.Epoch(), reply.Epoch)
	}
	// And writes route to the adopter too.
	if err := cl.c.Put("t", "a9999", []byte("post")); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.c.Get("t", "a9999"); err != nil || string(v) != "post" {
		t.Fatalf("post-failover write: %q, %v", v, err)
	}
}

// TestStaleEpochRejected proves the worker-side epoch gate: a data
// frame carrying an older epoch bounces with a stale-epoch reroute before
// touching the store.
func TestStaleEpochRejected(t *testing.T) {
	cl := startCluster(t, 2, nil)
	if err := cl.c.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	region, addr, err := cl.c.layout.Load().route("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	// Push a newer epoch to the hosting worker, as the master does
	// after a layout change.
	node := cl.workers[region.Server]
	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/node/epoch",
		strings.NewReader(`{"epoch": 99}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if node.epoch.Load() != 99 {
		t.Fatalf("epoch push not applied: %d", node.epoch.Load())
	}
	// A raw frame with the old epoch must bounce with a stale-epoch
	// reroute, before touching the store.
	cn := dialRaw(t, addr)
	f, err := cn.roundTrip(context.Background(), opGet, 1, appendStr(appendStr(nil, "t"), "k"))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != statusReroute || !strings.Contains(string(f.payload), CodeStaleEpoch) {
		t.Fatalf("stale epoch: status %d payload %s", f.kind, f.payload)
	}
	// The same stream serves an op routed under the current epoch.
	if f, err = cn.roundTrip(context.Background(), opGet, 99, appendStr(appendStr(nil, "t"), "k")); err != nil || f.kind != statusOK || string(f.payload) != "v" {
		t.Fatalf("current epoch: status %d payload %q, %v", f.kind, f.payload, err)
	}
	// The push is monotonic: a lower epoch never regresses the gate.
	req, _ = http.NewRequest(http.MethodPost, "http://"+addr+"/node/epoch",
		strings.NewReader(`{"epoch": 1}`))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	if node.epoch.Load() != 99 {
		t.Fatalf("epoch regressed on a lower push: %d", node.epoch.Load())
	}
}

// TestDeadlinePropagation: the client's budget bounds each call. An op
// that beats it replies normally; one that blows it returns
// context.DeadlineExceeded on time, including mid-Scan.
func TestDeadlinePropagation(t *testing.T) {
	// A stub worker whose scan is deliberately slow.
	srv := stubServer(t, func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
		switch op {
		case opScan:
			time.Sleep(300 * time.Millisecond)
			return append(out, 0), nil // empty entry set
		case opGet:
			return append(out, "fast"...), nil
		}
		return out, errors.New("unexpected op")
	})

	c := stubClient(srv.Addr(), 5*time.Second)
	// Fast path unaffected by the budget.
	if v, err := c.Get("t", "k"); err != nil || string(v) != "fast" {
		t.Fatalf("fast get: %q, %v", v, err)
	}
	// Slow scan against a 100ms budget: DeadlineExceeded, in ~100ms not
	// ~300ms.
	c.Timeout = 100 * time.Millisecond
	start := time.Now()
	_, err := c.Scan("t", "", "", -1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow scan: want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("deadline not enforced: took %v", d)
	}
}

// TestTimedOutCallIsIndeterminateAndDrained pins the timeout contract:
// a put that outlives its client's budget returns
// context.DeadlineExceeded on time, the server still runs the op it
// started to completion, and Drain waits for that op rather than
// returning while it is still running.
func TestTimedOutCallIsIndeterminateAndDrained(t *testing.T) {
	var recorded atomic.Bool
	srv := stubServer(t, func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
		time.Sleep(300 * time.Millisecond)
		recorded.Store(true)
		return out, nil
	})

	c := stubClient(srv.Addr(), 100*time.Millisecond)
	start := time.Now()
	err := c.Put("t", "k", []byte("v"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow put: want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("deadline not enforced: took %v", d)
	}
	if recorded.Load() {
		t.Fatal("the op finished before the client gave up; test proves nothing")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !recorded.Load() {
		t.Fatalf("Drain returned after %v with the timed-out put still running", time.Since(start))
	}
}

// TestPanicRecoveryAndMetrics: a panicking handler becomes a 500 (the
// process survives) and every request lands in the per-op histograms
// served by /metrics.
func TestPanicRecoveryAndMetrics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "fine")
	})
	var logbuf bytes.Buffer
	srv := NewServer("stub", mux, &logbuf)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	resp, err := http.Post("http://"+srv.Addr()+"/boom", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic handler: status %d, want 500", resp.StatusCode)
	}
	if resp, err = http.Get("http://" + srv.Addr() + "/ok"); err != nil {
		t.Fatalf("server died after panic: %v", err)
	}
	resp.Body.Close()
	if !strings.Contains(logbuf.String(), "kaboom") {
		t.Fatal("panic not logged")
	}
	resp, err = http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), `rpc_op_latency_seconds`) ||
		!strings.Contains(string(page), `op="/boom"`) {
		t.Fatalf("metrics page missing op histograms:\n%s", page)
	}
}

// TestMetricsBoundedByRouteTable: the per-op histograms are keyed by the
// matched route, not the request path, so clients probing paths that do
// not exist (or walking /debug/pprof/) cannot grow a node's heap: every
// unmatched path shares the one "other" series.
func TestMetricsBoundedByRouteTable(t *testing.T) {
	srv := NewServer("stub", http.NewServeMux(), io.Discard)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	size := func() int {
		srv.metrics.mu.Lock()
		defer srv.metrics.mu.Unlock()
		return len(srv.metrics.ops)
	}
	get := func(path string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get("/debug/pprof/cmdline")
	get("/debug/pprof/goroutine")
	get("/metrics")
	before := size()
	for i := 0; i < 1000; i++ {
		get(fmt.Sprintf("/probe/%d", i))
		get(fmt.Sprintf("/debug/pprof/no-such-profile-%d", i))
	}
	if got := size(); got != before+1 {
		t.Fatalf("registry grew from %d to %d series over 2000 probes, want %d", before, got, before+1)
	}
	srv.metrics.mu.Lock()
	other := srv.metrics.ops["other"]
	srv.metrics.mu.Unlock()
	if other == nil {
		t.Fatal(`unmatched paths did not land in op="other"`)
	}
	if s := other.Snapshot(); s.Count() != 1000 {
		t.Fatalf(`op="other" holds %d requests, want 1000`, s.Count())
	}
	// The debug plane's nested mux names its own routes: an exact match,
	// its /debug/pprof/ subtree for unknown profiles, and /metrics.
	srv.metrics.mu.Lock()
	pprofTree := srv.metrics.ops["/debug/pprof/"]
	srv.metrics.mu.Unlock()
	if s := pprofTree.Snapshot(); s.Count() != 1001 {
		t.Fatalf(`op="/debug/pprof/" holds %d requests, want 1001`, s.Count())
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, op := range []string{`op="/debug/pprof/cmdline"`, `op="/debug/pprof/"`, `op="/metrics"`} {
		if !strings.Contains(string(page), op) {
			t.Errorf("/metrics lacks the series %s", op)
		}
	}
}

// TestWorkerPageIsTheContract: one worker listener serves the whole
// observability surface for its server — the shared met_* tree, the rpc
// handler histograms in the exact form the bench parses, the process
// stats and the debug endpoints — and its probes follow the server's
// and the listener's state.
func TestWorkerPageIsTheContract(t *testing.T) {
	cl := startCluster(t, 2, nil)
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%04d", i)
		if err := cl.c.Put("t", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.c.Get("t", k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.c.Scan("t", "", "", -1); err != nil {
		t.Fatal(err)
	}
	region, _, err := cl.c.layout.Load().route("t", "k0000")
	if err != nil {
		t.Fatal(err)
	}
	node := cl.workers[region.Server]
	rs := node.RegionServer()
	for _, r := range rs.Regions() {
		if err := r.Store().Flush(); err != nil {
			t.Fatal(err)
		}
	}
	rs.QuiesceReplication()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + node.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, page := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	server := `{server="` + rs.Name() + `"`
	for _, want := range []string{
		"met_wal_appends_total" + server,
		"met_wal_sync_rounds_total" + server,
		"met_engine_flushes_total" + server,
		"met_replication_bytes_shipped_total" + server,
		"met_replication_failures_total" + server + `,kind="tail"}`,
		"met_op_latency_seconds" + server + `,op="put",quantile="0.99"}`,
		"met_process_goroutines ",
		`rpc_op_latency_seconds_sum{op="/node/get"} `,
		`rpc_op_latency_seconds_count{op="/node/get"} `,
		`rpc_op_latency_seconds_count{op="/node/put"} `,
		`rpc_op_latency_seconds_count{op="/node/scan"} `,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for _, zero := range []string{
		"met_wal_appends_total" + server + "} 0\n",
		"met_engine_flushes_total" + server + "} 0\n",
		"met_replication_bytes_shipped_total" + server + "} 0\n",
	} {
		if strings.Contains(page, zero) {
			t.Errorf("/metrics reports %q after puts, a flush and a quiesce", zero)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
	for _, path := range []string{"/debug/slowops", "/debug/vars", "/debug/pprof/", "/healthz", "/readyz"} {
		if code, body := get(path); code != http.StatusOK {
			t.Errorf("%s: %d %.100s", path, code, body)
		}
	}

	rs.Shutdown()
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after Shutdown: %d, want 503", code)
	}
	// Draining flips readiness before the listener goes away; probe the
	// handler directly, since a drained listener refuses connections.
	node.draining.Store(true)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", code)
	}
}

// TestDrainWhileServing: writers hammer a worker while it drains. Every
// put acknowledged before or during the drain must be durable on the
// worker (no acked write is truncated by the graceful stop), and the
// drained worker refuses new work with readiness off.
func TestDrainWhileServing(t *testing.T) {
	cl := startCluster(t, 2, nil)
	region, _, err := cl.c.layout.Load().route("t", "w0000")
	if err != nil {
		t.Fatal(err)
	}
	node := cl.workers[region.Server]

	w, err := Dial(cl.mn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w.Timeout = 2 * time.Second
	w.Retries = 0

	acked := make(chan string, 4096)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("w%04d", i)
			if err := w.Put("t", k, []byte("v")); err != nil {
				return // drained: new work refused, stop writing
			}
			acked <- k
		}
	}()
	time.Sleep(50 * time.Millisecond) // let some writes through
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := node.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	<-writerDone
	close(acked)

	// Readiness is off; the listener no longer accepts.
	if _, err := http.Get("http://" + node.Addr() + "/readyz"); err == nil {
		t.Fatal("drained listener still accepting")
	}
	// Every acknowledged write is in the (still-open) region server —
	// the drain completed the in-flight handlers before stopping.
	count := 0
	for k := range acked {
		if v, err := node.RegionServer().Get("t", k); err != nil || string(v) != "v" {
			t.Fatalf("acked write %s lost across drain: %q, %v", k, v, err)
		}
		count++
	}
	if count == 0 {
		t.Fatal("no writes were acknowledged before the drain; test proves nothing")
	}
}

// TestRecoverPartialFailureResumes is the networked twin of hbase's
// TestRecoverServerPartialFailureResumes: an adoption that fails on the
// dead worker's second region must leave the first one committed and
// routable, the dead worker still a member, and no region open on any
// worker that the layout does not assign to it; a second POST
// /master/recover then recovers exactly the remainder.
func TestRecoverPartialFailureResumes(t *testing.T) {
	// Six regions round-robin over three workers: each hosts two.
	cl := startCluster(t, 3, []string{"c", "g", "k", "p", "t"})
	var keys []string
	for _, p := range []string{"a", "d", "h", "l", "q", "u"} {
		for i := 0; i < 10; i++ {
			keys = append(keys, fmt.Sprintf("%s%03d", p, i))
		}
	}
	for _, k := range keys {
		if err := cl.c.Put("t", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	region, _, err := cl.c.layout.Load().route("t", "a000")
	if err != nil {
		t.Fatal(err)
	}
	victim := region.Server
	var dead []string // the victim's regions, in recovery (name) order
	for _, r := range cl.c.Regions() {
		if r.Server == victim {
			dead = append(dead, r.Name)
		}
	}
	if len(dead) != 2 {
		t.Fatalf("victim %s hosts %v, want 2 regions", victim, dead)
	}
	cl.workers[victim].Close()
	cl.workers[victim].RegionServer().Shutdown()
	quarantine(t, cl.dir, cl.workers[victim].RegionServer())
	delete(cl.workers, victim)

	// Block the SECOND region's adoption: its generation-suffixed
	// directory path (generation 1: nothing on this fresh cluster has
	// split or recovered yet) is occupied by a regular file.
	blocker := hbase.RegionDataDir(cl.dir, dead[1]+".1")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// noOrphans: every region a worker has open is one the committed
	// layout assigns to it.
	noOrphans := func(stage string) {
		t.Helper()
		_, layout := cl.mn.lm.Layout()
		assigned := make(map[string]string, len(layout))
		for _, r := range layout {
			assigned[r.Name] = r.Server
		}
		for name, w := range cl.workers {
			for _, r := range w.RegionServer().Regions() {
				if assigned[r.Name()] != name {
					t.Fatalf("%s: worker %s has %s open, which the layout assigns to %q",
						stage, name, r.Name(), assigned[r.Name()])
				}
			}
		}
	}

	if _, err := cl.c.Recover(victim); err == nil {
		t.Fatal("partial recovery reported success over a blocked region directory")
	}
	if !slices.Contains(cl.mn.lm.ServerNames(), victim) {
		t.Fatal("partially recovered worker lost its membership (retry impossible)")
	}
	_, layout := cl.mn.lm.Layout()
	for _, r := range layout {
		switch {
		case r.Name == dead[0]+".1" && r.Server == victim, r.Name == dead[0]:
			t.Fatalf("first region not committed off the dead worker: %+v", r)
		case r.Name == dead[1] && r.Server != victim:
			t.Fatalf("blocked region left the dead worker: %+v", r)
		}
	}
	noOrphans("after the partial recovery")
	// The committed region is routable: a fresh client serves its rows.
	fresh, err := Dial(cl.mn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := fresh.Get("t", "a000"); err != nil || string(v) != "v" {
		t.Fatalf("row of the committed region after the partial recovery: %q, %v", v, err)
	}

	// Retry after clearing the blocker: exactly the remainder recovers.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.c.Recover(victim)
	if err != nil {
		t.Fatalf("retry after partial recovery: %v", err)
	}
	if len(reply.Regions) != 1 || reply.Regions[0].Spec.Region != dead[1] {
		t.Fatalf("retry recovered %+v, want exactly %s", reply.Regions, dead[1])
	}
	if slices.Contains(cl.mn.lm.ServerNames(), victim) {
		t.Fatal("worker survived the completed retry")
	}
	noOrphans("after the retry")
	for _, k := range keys {
		if v, err := fresh.Get("t", k); err != nil || string(v) != "v" {
			t.Fatalf("row %s lost across the partial recovery: %q, %v", k, v, err)
		}
	}
}

// TestRunnerOverBothClients drives the same YCSB workloads — A for point
// ops, E for scans — through the one runner over both implementations of
// hbase.KV on the same durable cluster: the in-process client while the
// bootstrap master is live, then rpc.Client once the cluster is reopened
// as worker nodes. Both must complete every op with the configured mix;
// and with one worker's region server stopped, the 503 the rpc client
// gets must reach the runner as the same transient (ErrServerStopped)
// the in-process client reports, not as a hard error.
func TestRunnerOverBothClients(t *testing.T) {
	const ops = 600
	workloads := []ycsb.Workload{ycsb.PaperWorkloads()[0], ycsb.PaperWorkloads()[4]}
	for i := range workloads {
		workloads[i].RecordCount = 400
		workloads[i].FieldLengthBytes = 32
		workloads[i].MaxScanLength = 20
	}
	drive := func(client string, c hbase.KV, w ycsb.Workload) *ycsb.Runner {
		t.Helper()
		r, err := ycsb.NewRunner(w, c, 2, 17)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Load(0); err != nil {
			t.Fatalf("%s %s load: %v", client, w.Name, err)
		}
		if err := r.Run(ops); err != nil {
			t.Fatalf("%s %s run: %v", client, w.Name, err)
		}
		if r.TotalCompleted() != ops || r.Errors() != 0 || r.Transient() != 0 {
			t.Fatalf("%s %s: completed %d of %d, %d errors, %d transient",
				client, w.Name, r.TotalCompleted(), ops, r.Errors(), r.Transient())
		}
		done := r.Completed()
		for op, share := range map[ycsb.OpType]float64{
			ycsb.OpRead: w.ReadProportion, ycsb.OpUpdate: w.UpdateProportion,
			ycsb.OpInsert: w.InsertProportion, ycsb.OpScan: w.ScanProportion,
		} {
			if got := float64(done[op]) / ops; got < share-0.08 || got > share+0.08 {
				t.Fatalf("%s %s: %s share %.2f, want %.2f", client, w.Name, op, got, share)
			}
		}
		return r
	}
	cl := startClusterWith(t, 3, func(m *hbase.Master) {
		for _, w := range workloads {
			if _, err := m.CreateTable(w.TableName(), w.SplitKeys()); err != nil {
				t.Fatal(err)
			}
			drive("hbase.Client", hbase.NewClient(m), w)
		}
	})
	var overRPC *ycsb.Runner
	for _, w := range workloads {
		overRPC = drive("rpc.Client", cl.c, w)
	}

	// One worker stops serving; no failover follows, so every op routed
	// to it spends its retries and comes back 503. One look per op keeps
	// the test off the client's backoff schedule.
	cl.c.Retries = 0
	cl.workers["rs0"].RegionServer().Stop()
	if err := overRPC.Run(ops); err != nil {
		t.Fatalf("run aborted on a stopped worker: %v", err)
	}
	if overRPC.Errors() != 0 || overRPC.Transient() == 0 {
		t.Fatalf("stopped worker: %d errors, %d transient; want 0 and > 0", overRPC.Errors(), overRPC.Transient())
	}
	if got := overRPC.TotalCompleted() + overRPC.Transient(); got != 2*ops {
		t.Fatalf("completed %d + transient %d != %d", overRPC.TotalCompleted(), overRPC.Transient(), 2*ops)
	}
}

// The wire benchmarks time one operation client → loopback stream →
// ServerNode → RegionServer in one process: the rpc layer's whole
// per-op cost, allocations included, over a durable one-server cluster.

func BenchmarkWireGet(b *testing.B) {
	cl := startCluster(b, 1, nil)
	if err := cl.c.Put("t", "k", make([]byte, 100)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.c.Get("t", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWirePut(b *testing.B) {
	cl := startCluster(b, 1, nil)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.c.Put("t", keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireScan(b *testing.B) {
	cl := startCluster(b, 1, nil)
	for i := 0; i < 100; i++ {
		if err := cl.c.Put("t", fmt.Sprintf("k%04d", i), make([]byte, 100)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, err := cl.c.Scan("t", "k0000", "", 20); err != nil || len(rows) != 20 {
			b.Fatalf("scan: %d rows, %v", len(rows), err)
		}
	}
}
