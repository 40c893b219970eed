package compaction

import (
	"sync"
	"sync/atomic"
	"time"
)

// Budget is the token-bucket I/O budget shared between background
// compaction and the foreground serving path, implementing kv.IOBudget.
// Tokens are bytes of disk bandwidth, refilled at Rate bytes/sec up to
// one second of burst:
//
//   - WaitBackground (compaction reads and writes) blocks until enough
//     tokens accumulate, consuming them in bounded chunks so the rate
//     shaping stays smooth even for multi-MB requests;
//   - NoteForeground (WAL appends, flush SSTables, i.e. work a client is
//     waiting on) consumes tokens without ever blocking — it may drive
//     the balance negative, which starves *compaction*, never the
//     client. The debt is clamped at one burst so a foreground spike
//     delays compaction by at most ~2 bucket periods rather than
//     forever.
//
// A zero/unlimited budget (rate <= 0) never blocks but still counts
// bytes, so observability does not depend on throttling being enabled.
type Budget struct {
	mu     sync.Mutex
	rate   float64 // bytes per second; <= 0 means unlimited
	burst  float64 // bucket capacity (and max debt)
	tokens float64
	last   time.Time

	backgroundBytes atomic.Int64
	foregroundBytes atomic.Int64
	waitNanos       atomic.Int64
}

// NewBudget creates a budget refilling at bytesPerSec (<= 0: unlimited).
func NewBudget(bytesPerSec int64) *Budget {
	b := &Budget{rate: float64(bytesPerSec), burst: float64(bytesPerSec), last: time.Now()}
	b.tokens = b.burst
	return b
}

// refillLocked credits tokens for the time elapsed since the last call.
func (b *Budget) refillLocked(now time.Time) {
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// WaitBackground implements kv.IOBudget: block until n bytes of budget
// are available, then consume them.
func (b *Budget) WaitBackground(n int) {
	if n <= 0 {
		return
	}
	b.backgroundBytes.Add(int64(n))
	if b.rate <= 0 {
		return
	}
	var waited int64
	remaining := float64(n)
	for remaining > 0 {
		b.mu.Lock()
		now := time.Now()
		b.refillLocked(now)
		// Consume whatever is available (up to a chunk of one burst) and
		// sleep only for the shortfall, so concurrent waiters interleave
		// instead of one waiter draining whole seconds at a time.
		take := remaining
		if take > b.burst {
			take = b.burst
		}
		b.tokens -= take
		remaining -= take
		var sleep time.Duration
		if b.tokens < 0 {
			sleep = time.Duration(-b.tokens / b.rate * float64(time.Second))
		}
		b.mu.Unlock()
		if sleep > 0 {
			time.Sleep(sleep)
			waited += int64(sleep)
		}
	}
	b.waitNanos.Add(waited)
}

// NoteForeground implements kv.IOBudget: consume n bytes without
// blocking, clamping the debt at one burst.
func (b *Budget) NoteForeground(n int) {
	if n <= 0 {
		return
	}
	b.foregroundBytes.Add(int64(n))
	if b.rate <= 0 {
		return
	}
	b.mu.Lock()
	b.refillLocked(time.Now())
	b.tokens -= float64(n)
	if b.tokens < -b.burst {
		b.tokens = -b.burst
	}
	b.mu.Unlock()
}

// BudgetStats is a snapshot of the budget's counters.
type BudgetStats struct {
	// BackgroundBytes and ForegroundBytes are cumulative bytes charged
	// by each class.
	BackgroundBytes int64 `json:"background_bytes"`
	ForegroundBytes int64 `json:"foreground_bytes"`
	// WaitNanos is the cumulative time background callers spent blocked
	// waiting for tokens.
	WaitNanos int64 `json:"wait_ns"`
}

// Stats snapshots the budget counters.
func (b *Budget) Stats() BudgetStats {
	return BudgetStats{
		BackgroundBytes: b.backgroundBytes.Load(),
		ForegroundBytes: b.foregroundBytes.Load(),
		WaitNanos:       b.waitNanos.Load(),
	}
}
