package ycsb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/hbase"
	"met/internal/kv"
	"met/internal/obs"
	"met/internal/sim"
)

// numOpTypes sizes the per-op latency shards (OpRead..OpReadModifyWrite).
const numOpTypes = int(OpReadModifyWrite) + 1

// Runner drives one workload against a cluster through its data-plane
// surface (hbase.KV: the in-process client or rpc.Client, unchanged) from
// a fixed pool of closed-loop client goroutines — the thread pool real
// YCSB uses (the paper runs 50 client threads per workload); at
// concurrency 1 it is the plain sequential driver. The seed is given
// once, at construction: every worker owns an RNG and a key generator
// derived from it, and both persist across Run calls, so a caller that
// runs in batches (a controller tick between them) continues each
// worker's stream instead of replaying it, and a run is deterministic
// for a given (seed, concurrency) pair. Hot-path shared state is limited
// to the atomics that must be shared (the error counts and the insert
// cursor that extends the keyspace); completions and latencies live in
// worker-private histogram shards (obs.Shard), so timing costs no
// cross-core contention. Run and Load must not overlap each other or the
// accessors, which merge the shards on demand.
type Runner struct {
	W  Workload
	KV hbase.KV

	workers   []*worker
	inserts   atomic.Int64
	errors    atomic.Int64
	transient atomic.Int64
}

// worker is one closed-loop client goroutine's state: private RNG,
// generator and latency shards; only the keyspace cursor and error
// counts touch shared atomics.
type worker struct {
	r   *Runner
	rng *sim.RNG
	gen Generator
	lat [numOpTypes]obs.Shard
}

// NewRunner prepares a runner with concurrency workers seeded from seed;
// call Load before Run.
func NewRunner(w Workload, c hbase.KV, concurrency int, seed uint64) (*Runner, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if concurrency < 1 {
		return nil, fmt.Errorf("ycsb: concurrency %d < 1", concurrency)
	}
	r := &Runner{W: w, KV: c, workers: make([]*worker, concurrency)}
	for i := range r.workers {
		r.workers[i] = &worker{
			r:   r,
			rng: sim.NewRNG(seed + uint64(i)*0x9e3779b97f4a7c15),
			gen: NewPaperHotspot(w.RecordCount),
		}
	}
	r.inserts.Store(w.RecordCount)
	return r, nil
}

// CreateTable creates the workload's pre-split table on the master
// (table creation has no wire endpoint; a networked cluster is
// bootstrapped in-process first).
func (r *Runner) CreateTable(m *hbase.Master) error {
	_, err := m.CreateTable(r.W.TableName(), r.W.SplitKeys())
	return err
}

// eachWorker splits the index range [0, n) into one contiguous share
// per worker, runs fn on a goroutine per worker with a nonempty share,
// waits for all of them and returns the union of their errors.
func (r *Runner) eachWorker(n int64, fn func(w *worker, lo, hi int64) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.workers))
	c := int64(len(r.workers))
	for i, w := range r.workers {
		lo, hi := n*int64(i)/c, n*int64(i+1)/c
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = fn(w, lo, hi)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Load populates the table with the initial records, fanning disjoint
// key ranges across the workers. count <= 0 loads the full RecordCount;
// tests use smaller loads.
func (r *Runner) Load(count int64) error {
	if count <= 0 || count > r.W.RecordCount {
		count = r.W.RecordCount
	}
	val := r.value()
	return r.eachWorker(count, func(_ *worker, lo, hi int64) error {
		for i := lo; i < hi; i++ {
			if err := r.KV.Put(r.W.TableName(), r.W.Key(i), val); err != nil {
				return fmt.Errorf("ycsb: load %s: %w", r.W.Name, err)
			}
		}
		return nil
	})
}

// value builds a deterministic filler value of the configured size.
func (r *Runner) value() []byte {
	return bytes.Repeat([]byte{'x'}, r.W.FieldLengthBytes)
}

// Run executes n more operations split across the workers, stopping each
// worker at its first hard error and returning the union of failures.
// Reads of missing keys are benign (sparse test loads).
func (r *Runner) Run(n int) error {
	return r.eachWorker(int64(n), func(w *worker, lo, hi int64) error {
		for i := lo; i < hi; i++ {
			if err := w.step(); err != nil {
				return err
			}
		}
		return nil
	})
}

// step executes one operation drawn from the workload mix, timing it so
// measured per-op-class latencies (OpLatencies) can calibrate the
// performance model against real engine costs.
func (w *worker) step() error {
	r := w.r
	op := r.W.NextOp(w.rng)
	table := r.W.TableName()
	start := time.Now()
	var err error
	switch op {
	case OpRead:
		_, err = r.KV.Get(table, w.key())
		if errors.Is(err, hbase.ErrNotFound) {
			err = nil // sparse loads in tests make misses benign
		}
	case OpUpdate:
		err = r.KV.Put(table, w.key(), r.value())
	case OpInsert:
		k := r.W.Key(r.inserts.Add(1) - 1)
		err = r.KV.Put(table, k, r.value())
	case OpScan:
		length := 1 + w.rng.Intn(r.W.MaxScanLength)
		_, err = r.KV.Scan(table, w.key(), "", length)
	case OpReadModifyWrite:
		err = hbase.ReadModifyWrite(r.KV, table, w.key(), func([]byte) []byte { return r.value() })
	}
	if err != nil {
		// Topology churn (a server mid-restart, a store retired by a
		// split) is the workload's weather, not a worker-fatal fault:
		// real YCSB threads ride out NotServingRegionException the same
		// way. Count it and keep the worker alive.
		if errors.Is(err, hbase.ErrServerStopped) || errors.Is(err, kv.ErrClosed) {
			r.transient.Add(1)
			return nil
		}
		r.errors.Add(1)
		return err
	}
	w.lat[op].RecordNanos(int64(time.Since(start)))
	return nil
}

// key draws a key index from the distribution, clamped to the loaded
// range grown by inserts.
func (w *worker) key() string {
	i := w.gen.Next(w.rng)
	if n := w.r.inserts.Load(); i >= n {
		i = n - 1
	}
	return w.r.W.Key(i)
}

// latency merges the workers' shards for one op class, all Runs so far.
func (r *Runner) latency(op int) obs.Snapshot {
	var s obs.Snapshot
	for _, w := range r.workers {
		s.Merge(w.lat[op].Snapshot())
	}
	return s
}

// Completed returns per-op completion counts.
func (r *Runner) Completed() map[OpType]int64 {
	out := make(map[OpType]int64, numOpTypes)
	for op := 0; op < numOpTypes; op++ {
		if s := r.latency(op); s.Count() > 0 {
			out[OpType(op)] = s.Count()
		}
	}
	return out
}

// OpLatencies returns the per-op-class client-observed latency
// summaries (count, mean, bucketed p50/p95/p99/p999, max) of the classes
// that completed anything. The mean is exact (histogram sums are exact;
// only percentiles are bucketed) — the raw material for calibrating the
// performance model's cost constants against the real engine.
func (r *Runner) OpLatencies() map[OpType]obs.LatencySummary {
	out := make(map[OpType]obs.LatencySummary, numOpTypes)
	for op := 0; op < numOpTypes; op++ {
		if s := r.latency(op); s.Count() > 0 {
			out[OpType(op)] = s.Summary()
		}
	}
	return out
}

// TotalCompleted returns the total successful operations.
func (r *Runner) TotalCompleted() int64 {
	var sum int64
	for _, n := range r.Completed() {
		sum += n
	}
	return sum
}

// Errors returns the number of hard-failed operations.
func (r *Runner) Errors() int64 { return r.errors.Load() }

// Transient returns the number of operations dropped on topology churn
// (server restarting, store retired by a split); they are neither
// completed nor hard errors.
func (r *Runner) Transient() int64 { return r.transient.Load() }
