package ycsb

import (
	"fmt"
	"slices"
	"testing"

	"met/internal/hbase"
	"met/internal/kv"
)

// TestRunnerParallelMatchesWorkloadMix fans Workload A across 8 workers
// and checks the shared atomics add up: every operation completed, no
// errors, per-op counts near the configured 50/50 mix.
func TestRunnerParallelMatchesWorkloadMix(t *testing.T) {
	m, c := newTestCluster(t, 3)
	w := PaperWorkloads()[0] // A: 50% read / 50% update
	w.RecordCount = 2000
	w.FieldLengthBytes = 32
	p, err := NewRunner(w, c, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTable(m); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(0); err != nil {
		t.Fatal(err)
	}
	const ops = 4000
	if err := p.Run(ops); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalCompleted(); got != ops {
		t.Fatalf("completed = %d, want %d", got, ops)
	}
	if p.Errors() != 0 {
		t.Fatalf("errors = %d", p.Errors())
	}
	done := p.Completed()
	if reads := done[OpRead]; reads < ops/4 || reads > 3*ops/4 {
		t.Fatalf("read mix off: %d of %d", reads, ops)
	}
	if done[OpRead]+done[OpUpdate] != ops {
		t.Fatalf("unexpected op types: %v", done)
	}
	// The cluster-side counters saw the same volume (reads may exceed
	// client reads only via retries; here routes are stable).
	var cluster int64
	for _, rs := range m.Servers() {
		req := rs.Requests()
		cluster += req.Reads + req.Writes
	}
	if cluster < ops {
		t.Fatalf("cluster counted %d ops, want >= %d", cluster, ops)
	}
}

// TestRunnerParallelInsertsExtendKeyspace verifies the atomic insert
// cursor: concurrent inserts mint unique keys and grow the keyspace.
func TestRunnerParallelInsertsExtendKeyspace(t *testing.T) {
	m, c := newTestCluster(t, 3)
	w := PaperWorkloads()[3] // D: 5% read / 95% insert
	w.RecordCount = 500
	w.FieldLengthBytes = 16
	p, err := NewRunner(w, c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTable(m); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(0); err != nil {
		t.Fatal(err)
	}
	const ops = 1200
	if err := p.Run(ops); err != nil {
		t.Fatal(err)
	}
	inserted := p.Completed()[OpInsert]
	if inserted == 0 {
		t.Fatal("no inserts in a 95% insert workload")
	}
	if got := p.inserts.Load(); got != w.RecordCount+inserted {
		t.Fatalf("keyspace = %d, want %d + %d", got, w.RecordCount, inserted)
	}
	// Every minted key actually landed: read back the full tail.
	for i := w.RecordCount; i < p.inserts.Load(); i++ {
		if _, err := c.Get(w.TableName(), w.Key(i)); err != nil {
			t.Fatalf("inserted key %d missing: %v", i, err)
		}
	}
}

// TestRunnerValidation rejects bad configs up front.
func TestRunnerValidation(t *testing.T) {
	_, c := newTestCluster(t, 3)
	w := PaperWorkloads()[0]
	if _, err := NewRunner(w, c, 0, 1); err == nil {
		t.Fatal("zero concurrency accepted")
	}
	w.RecordCount = 0
	if _, err := NewRunner(w, c, 4, 1); err == nil {
		t.Fatal("workload without records accepted")
	}
	if _, err := NewRunner(Workload{Name: "bad"}, c, 1, 1); err == nil {
		t.Fatal("workload without an op mix accepted")
	}
}

// TestRunnerRidesOutStoppedServer pins transient-error
// tolerance: operations routed to a stopped server are dropped and
// counted, not fatal to the worker, and the rest of the cluster keeps
// absorbing its share.
func TestRunnerRidesOutStoppedServer(t *testing.T) {
	m, c := newTestCluster(t, 3)
	w := PaperWorkloads()[0] // A: 50% read / 50% update, no inserts
	w.RecordCount = 1200
	w.FieldLengthBytes = 16
	p, err := NewRunner(w, c, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTable(m); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(0); err != nil {
		t.Fatal(err)
	}
	m.Servers()[0].Stop()
	const ops = 2000
	if err := p.Run(ops); err != nil {
		t.Fatalf("run aborted on transient errors: %v", err)
	}
	if p.Errors() != 0 {
		t.Fatalf("hard errors = %d", p.Errors())
	}
	if p.Transient() == 0 {
		t.Fatal("no transient drops despite a stopped server")
	}
	if got := p.TotalCompleted() + p.Transient(); got != ops {
		t.Fatalf("completed %d + transient %d != %d", p.TotalCompleted(), p.Transient(), ops)
	}
}

// recordingKV wraps a client and logs every call the runner makes, in
// order — the key sequence a run touches.
type recordingKV struct {
	hbase.KV
	calls []string
}

func (r *recordingKV) Get(table, key string) ([]byte, error) {
	r.calls = append(r.calls, "get "+key)
	return r.KV.Get(table, key)
}

func (r *recordingKV) Put(table, key string, value []byte) error {
	r.calls = append(r.calls, "put "+key)
	return r.KV.Put(table, key, value)
}

func (r *recordingKV) Scan(table, start, end string, limit int) ([]kv.Entry, error) {
	r.calls = append(r.calls, fmt.Sprintf("scan %s %d", start, limit))
	return r.KV.Scan(table, start, end, limit)
}

// TestRunnerStreamsPersistAcrossRuns pins the batching contract: the
// seed is consumed at construction and each worker's RNG and generator
// carry over, so Run(100); Run(100) touches exactly the key sequence
// Run(200) does on a fresh runner with the same seed — a batched caller
// (metbench -met, the integration test) never replays a batch. Workloads
// F and E cover every op type between them except the insert cursor,
// which TestRunnerInsertsGrowKeyspace owns.
func TestRunnerStreamsPersistAcrossRuns(t *testing.T) {
	for _, idx := range []int{4, 5} { // E: scan + insert, F: read + read-modify-write
		w := PaperWorkloads()[idx]
		w.RecordCount = 400
		w.FieldLengthBytes = 16
		sequence := func(batches ...int) []string {
			m, c := newTestCluster(t, 3)
			rec := &recordingKV{KV: c}
			r, err := NewRunner(w, rec, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.CreateTable(m); err != nil {
				t.Fatal(err)
			}
			if err := r.Load(0); err != nil {
				t.Fatal(err)
			}
			rec.calls = nil
			for _, n := range batches {
				if err := r.Run(n); err != nil {
					t.Fatal(err)
				}
			}
			return rec.calls
		}
		whole, batched := sequence(200), sequence(100, 100)
		if len(whole) < 200 {
			t.Fatalf("workload %s: %d calls for 200 ops", w.Name, len(whole))
		}
		if !slices.Equal(whole, batched) {
			t.Fatalf("workload %s: Run(100);Run(100) diverged from Run(200)", w.Name)
		}
		if slices.Equal(batched[:len(batched)/2], batched[len(batched)/2:]) {
			t.Fatalf("workload %s: the second batch replayed the first", w.Name)
		}
	}
}
