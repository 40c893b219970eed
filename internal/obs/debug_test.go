package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testConfig(healthErr *error) DebugConfig {
	return DebugConfig{
		Metrics: func(m *MetricWriter) {
			m.Header("met_up", "Serving.", "gauge")
			m.Sample("met_up", nil, 1)
		},
		Health: func() error { return *healthErr },
		SlowOps: func() []SlowOp {
			return []SlowOp{{Op: "get", Table: "t", Key: "k", Total: time.Millisecond,
				Spans: []Span{{Stage: "sstable-read", Dur: time.Millisecond}}}}
		},
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	var healthErr error
	srv := httptest.NewServer(NewMux(testConfig(&healthErr)))
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != 200 || !strings.Contains(body, "met_up 1") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}

	if code, body, _ = get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz healthy: code %d body %q", code, body)
	}
	healthErr = errors.New("rs2 stopped")
	if code, body, _ = get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "rs2 stopped") {
		t.Fatalf("/healthz unhealthy: code %d body %q", code, body)
	}

	code, body, _ = get("/debug/slowops")
	if code != 200 {
		t.Fatalf("/debug/slowops: code %d", code)
	}
	var ops []SlowOp
	if err := json.Unmarshal([]byte(body), &ops); err != nil || len(ops) != 1 || ops[0].Spans[0].Stage != "sstable-read" {
		t.Fatalf("/debug/slowops: err %v body %q", err, body)
	}

	if code, body, _ = get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code %d", code)
	}
	if code, _, _ = get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
}

func TestServeDebugLifecycle(t *testing.T) {
	var healthErr error
	ds, err := ServeDebug("127.0.0.1:0", testConfig(&healthErr))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", ds.Addr()))
	if err != nil {
		t.Fatalf("GET over real listener: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz over real listener: %d", resp.StatusCode)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", ds.Addr())); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

func TestReadProcessStats(t *testing.T) {
	p := ReadProcessStats()
	if p.HeapLiveBytes == 0 || p.TotalBytes == 0 {
		t.Fatalf("zero memory stats: %+v", p)
	}
	if p.Goroutines < 1 {
		t.Fatalf("goroutines = %d", p.Goroutines)
	}
	if p.HeapLiveBytes > p.TotalBytes {
		t.Fatalf("live heap %d exceeds runtime-owned memory %d", p.HeapLiveBytes, p.TotalBytes)
	}
}
