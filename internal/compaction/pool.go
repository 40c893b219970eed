// Package compaction is the server-wide background compaction subsystem:
// a worker pool that drains a priority queue of stores needing
// compaction, a pluggable file-selection policy (tiered or leveled), and
// a token-bucket I/O budget shared with the foreground serving path.
//
// MeT (Cruz et al., EuroSys '13) uses major compaction as its actuator —
// it fires one after every reconfiguration to restore data locality —
// and its core promise is that serving latency stays predictable while
// such heavy maintenance runs. That promise is impossible when
// compaction I/O happens under the store write lock (where it lived
// until this subsystem): one compaction stalled every Put on the region.
// Here the engine only *requests* service; all compaction I/O runs on
// pool workers, off every engine lock, and is rate-limited so it cannot
// starve foreground fsyncs.
//
//	          Put/Delete ──────────────► kv.Store ──┐ flush crosses
//	               ▲                                │ MaxStoreFiles
//	 stall at hard │                                ▼
//	 file ceiling, │                 CompactionTrigger.CompactionNeeded
//	 released by   │                                │ (score: files,
//	 the swap      │                                ▼  bytes, age)
//	               │                        ┌───────────────┐
//	MajorCompact ──┼──── CompactWait ─────► │ priority queue│
//	(MeT actuator) │      (high prio)       └───────┬───────┘
//	               │                                ▼
//	               │                          worker pool ── Policy.Plan
//	               │                                │     (tiered/leveled)
//	               │                                ▼
//	               └──────────────── kv.Store.CompactFiles(selection)
//	                                  reads+writes pass Budget:
//	                        WaitBackground (blocks) ◄─┐ token bucket
//	                        NoteForeground (never)  ◄─┘ WAL + flush bytes
//
// One Pool serves all regions of a RegionServer, mirroring HBase's
// per-server CompactSplitThread: requests for the same store coalesce
// (their score rises instead of queueing twice), queued tasks age so a
// busy server cannot starve a cold store, and MeT's actuator-issued
// major compactions enter at high priority so reconfiguration completes
// promptly without cutting the serving path's I/O share.
package compaction

import (
	"container/heap"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/kv"
	"met/internal/obs"
)

// ErrPoolClosed is returned to waiters when the pool shuts down before
// (or while) servicing their request.
var ErrPoolClosed = errors.New("compaction: pool closed")

// majorPriority is the score floor for actuator-issued major
// compactions; ordinary pressure scores are single digits.
const majorPriority = 1000

// agingWeight converts queue age into score: one excess-file-equivalent
// point per 10 seconds queued, so old requests eventually outrank new
// pressure. Because every task ages at the same rate, relative order
// between two queued tasks never changes — the heap invariant holds no
// matter when the comparison runs.
const agingWeight = 0.1

// Config tunes a Pool. The zero value gets one worker, an unlimited
// budget, the tiered policy and the engine's default soft threshold.
type Config struct {
	// Workers is the number of concurrent compaction goroutines.
	// Defaults to 1; compactions for distinct stores run in parallel
	// when more are configured.
	Workers int
	// BudgetBytesPerSec rate-limits background compaction I/O;
	// <= 0 means unlimited.
	BudgetBytesPerSec int64
	// Policy selects files to merge; nil means TieredPolicy.
	Policy Policy
	// MaxStoreFiles is the soft per-store threshold the policy plans
	// against. Defaults to 8 (the engine default).
	MaxStoreFiles int
	// Counters receives the pool's and its budget's counts; nil means
	// the pool's own.
	Counters *Counters
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Policy == nil {
		c.Policy = TieredPolicy{}
	}
	if c.MaxStoreFiles == 0 {
		c.MaxStoreFiles = 8
	}
	if c.Counters == nil {
		c.Counters = new(Counters)
	}
	return c
}

// task is one queued compaction request; requests for the same store
// coalesce into one task.
type task struct {
	store      *kv.Store
	major      bool
	score      float64
	enqueuedAt time.Time
	seq        uint64
	index      int // heap position
	waiters    []chan error
}

func (t *task) effectiveScore(now time.Time) float64 {
	return t.score + agingWeight*now.Sub(t.enqueuedAt).Seconds()
}

// taskHeap orders tasks by effective score (desc), then FIFO.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	now := time.Now()
	si, sj := h[i].effectiveScore(now), h[j].effectiveScore(now)
	if si != sj {
		return si > sj
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Pool is the server-wide background compactor.
type Pool struct {
	cfg    Config
	budget *Budget

	mu      sync.Mutex
	cond    *sync.Cond
	queue   taskHeap
	byStore map[*kv.Store]*task
	seq     uint64
	running int
	closed  bool
	wg      sync.WaitGroup

	ctr *Counters // what the pool and its budget count
}

// Counters is what a pool and its budget count. A pool counts into the
// Counters its Config names, so an embedder that replaces a pool (new
// knobs) or closes one keeps one running total, as kv.Host's counters do
// for the engine.
type Counters struct {
	compactions     atomic.Int64
	conflicts       atomic.Int64
	failures        atomic.Int64
	bytesIn         atomic.Int64
	bytesOut        atomic.Int64
	compactionNanos atomic.Int64
	durHist         obs.Histogram // per-merge CompactFiles durations

	backgroundBytes atomic.Int64
	foregroundBytes atomic.Int64
	waitNanos       atomic.Int64
}

// Stats snapshots the counters: a PoolStats without the queue gauges.
func (c *Counters) Stats() PoolStats {
	return PoolStats{
		Compactions:     c.compactions.Load(),
		Conflicts:       c.conflicts.Load(),
		Failures:        c.failures.Load(),
		BytesIn:         c.bytesIn.Load(),
		BytesOut:        c.bytesOut.Load(),
		CompactionNanos: c.compactionNanos.Load(),
		Budget: BudgetStats{
			BackgroundBytes: c.backgroundBytes.Load(),
			ForegroundBytes: c.foregroundBytes.Load(),
			WaitNanos:       c.waitNanos.Load(),
		},
	}
}

// Latency returns the distribution of completed per-merge CompactFiles
// durations.
func (c *Counters) Latency() obs.Snapshot { return c.durHist.Snapshot() }

// NewPool starts a pool with cfg.Workers background workers.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:     cfg,
		budget:  newBudget(cfg.BudgetBytesPerSec, cfg.Counters),
		byStore: make(map[*kv.Store]*task),
		ctr:     cfg.Counters,
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Budget returns the pool's shared I/O budget, for a store's
// kv.Host.Budget and the durable backend's foreground accounting.
func (p *Pool) Budget() *Budget { return p.budget }

// CompactionNeeded implements kv.CompactionTrigger: the engine calls it
// (outside its locks) when a flush pushes a store over the soft
// threshold.
func (p *Pool) CompactionNeeded(s *kv.Store, pr kv.CompactionPressure) {
	p.enqueue(s, Score(pr, p.cfg.MaxStoreFiles), false, nil)
}

// CompactWait enqueues a major compaction of s at high priority and
// blocks until it completes — the path MeT's actuator-issued
// MajorCompact takes, so even "compact everything now" requests respect
// the worker pool and the I/O budget.
func (p *Pool) CompactWait(s *kv.Store) error {
	done := make(chan error, 1)
	if !p.enqueue(s, majorPriority, true, done) {
		return ErrPoolClosed
	}
	return <-done
}

// enqueue adds or coalesces a request; false means the pool is closed.
func (p *Pool) enqueue(s *kv.Store, score float64, major bool, waiter chan error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if t := p.byStore[s]; t != nil {
		if score > t.score {
			t.score = score
			heap.Fix(&p.queue, t.index)
		}
		t.major = t.major || major
		if waiter != nil {
			t.waiters = append(t.waiters, waiter)
		}
		return true
	}
	p.seq++
	t := &task{store: s, major: major, score: score, enqueuedAt: time.Now(), seq: p.seq}
	if waiter != nil {
		t.waiters = append(t.waiters, waiter)
	}
	heap.Push(&p.queue, t)
	p.byStore[s] = t
	s.NoteCompactionQueued(1)
	p.cond.Signal()
	return true
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		t := heap.Pop(&p.queue).(*task)
		delete(p.byStore, t.store)
		p.running++
		p.mu.Unlock()
		t.store.NoteCompactionQueued(-1)

		err := p.runTask(t)
		for _, w := range t.waiters {
			w <- err
		}
		p.mu.Lock()
		p.running--
		p.mu.Unlock()
	}
}

// runTask plans and executes compactions for one store until the policy
// is satisfied (or the plan goes stale too many times). A store retired
// mid-task (closed by a restart, split or move) is not a pool failure:
// the replacement store re-triggers on its own flushes.
func (p *Pool) runTask(t *task) error {
	for attempt := 0; attempt < 8; attempt++ {
		var sel kv.CompactionSelection
		if t.major {
			sel = kv.CompactionSelection{Major: true}
		} else {
			sel = p.cfg.Policy.Plan(t.store.FileStats(), p.cfg.MaxStoreFiles)
			if len(sel.IDs) == 0 {
				return nil
			}
		}
		start := time.Now()
		res, err := t.store.CompactFiles(sel)
		switch {
		case err == nil:
			p.ctr.compactions.Add(1)
			p.ctr.bytesIn.Add(res.BytesIn)
			p.ctr.bytesOut.Add(res.BytesOut)
			p.ctr.compactionNanos.Add(int64(p.ctr.durHist.Since(start)))
			if t.major {
				return nil
			}
			// Leveled plans are incremental; keep going while the store
			// is still over threshold so one trigger fully drains the
			// backlog.
			continue
		case errors.Is(err, kv.ErrCompactionConflict):
			p.ctr.conflicts.Add(1)
			continue
		case errors.Is(err, kv.ErrClosed):
			return err
		default:
			p.ctr.failures.Add(1)
			return err
		}
	}
	return nil
}

// Close drains the queue (failing queued waiters with ErrPoolClosed),
// stops the workers and waits for in-flight compactions to finish.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, t := range p.queue {
		t.store.NoteCompactionQueued(-1)
		for _, w := range t.waiters {
			w <- ErrPoolClosed
		}
	}
	p.queue = nil
	p.byStore = make(map[*kv.Store]*task)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// PoolStats is a snapshot of the pool's activity.
type PoolStats struct {
	// QueueDepth is the number of queued (not yet running) requests.
	QueueDepth int `json:"queue_depth"`
	// Running is the number of in-flight compactions.
	Running int `json:"running"`
	// Compactions, Conflicts and Failures count completed merges,
	// stale-plan retries and hard errors.
	Compactions int64 `json:"compactions"`
	Conflicts   int64 `json:"conflicts"`
	Failures    int64 `json:"failures"`
	// BytesIn and BytesOut are cumulative compaction I/O.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// CompactionNanos is cumulative wall time spent inside CompactFiles.
	CompactionNanos int64 `json:"compaction_ns"`
	// Budget reports the shared I/O budget's counters.
	Budget BudgetStats `json:"budget"`
}

// Add returns the element-wise sum of two pool snapshots; embedders use
// it to aggregate per-server pools to a cluster view.
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		QueueDepth:      s.QueueDepth + o.QueueDepth,
		Running:         s.Running + o.Running,
		Compactions:     s.Compactions + o.Compactions,
		Conflicts:       s.Conflicts + o.Conflicts,
		Failures:        s.Failures + o.Failures,
		BytesIn:         s.BytesIn + o.BytesIn,
		BytesOut:        s.BytesOut + o.BytesOut,
		CompactionNanos: s.CompactionNanos + o.CompactionNanos,
		Budget: BudgetStats{
			BackgroundBytes: s.Budget.BackgroundBytes + o.Budget.BackgroundBytes,
			ForegroundBytes: s.Budget.ForegroundBytes + o.Budget.ForegroundBytes,
			WaitNanos:       s.Budget.WaitNanos + o.Budget.WaitNanos,
		},
	}
}

// Stats snapshots the pool: its queue gauges and its Counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	depth, running := len(p.queue), p.running
	p.mu.Unlock()
	st := p.ctr.Stats()
	st.QueueDepth, st.Running = depth, running
	return st
}

var _ kv.CompactionTrigger = (*Pool)(nil)
var _ kv.IOBudget = (*Budget)(nil)
