package obs

import (
	"sync"
	"time"
)

// SlowOp is one over-threshold operation captured by a SlowLog,
// carrying the per-stage spans of its trace.
type SlowOp struct {
	Time  time.Time     `json:"time"`
	Op    string        `json:"op"`
	Table string        `json:"table"`
	Key   string        `json:"key"`
	Total time.Duration `json:"total_ns"`
	Spans []Span        `json:"spans"`
}

// SlowLog is a bounded ring buffer of recent slow operations. It is
// mutex-protected rather than lock-free: it is only touched when an op
// already blew past the slow threshold, so contention here is by
// construction off the fast path.
type SlowLog struct {
	mu    sync.Mutex
	buf   []SlowOp
	next  int   // index the next record lands in
	total int64 // ops ever recorded, including overwritten ones
}

// DefaultSlowLogSize is the ring capacity a region server keeps.
const DefaultSlowLogSize = 128

// NewSlowLog returns a ring of the most recent capacity (> 0) entries.
func NewSlowLog(capacity int) *SlowLog {
	return &SlowLog{buf: make([]SlowOp, 0, capacity)}
}

// Observe builds a SlowOp from a finished trace and records it.
func (l *SlowLog) Observe(t *Trace, total time.Duration) {
	if l == nil || t == nil {
		return
	}
	l.Record(SlowOp{
		Time:  t.Start(),
		Op:    t.Op,
		Table: t.Table,
		Key:   t.Key,
		Total: total,
		Spans: t.Spans(),
	})
}

// Record appends op, overwriting the oldest entry once the ring is
// full.
func (l *SlowLog) Record(op SlowOp) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, op)
	} else {
		l.buf[l.next] = op
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.total++
}

// Snapshot returns the retained slow ops, oldest first.
func (l *SlowLog) Snapshot() []SlowOp {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowOp, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		// Not yet wrapped: entries 0..len-1 are already oldest-first.
		return append(out, l.buf...)
	}
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// Total returns how many slow ops were ever recorded, including ones
// the ring has since overwritten.
func (l *SlowLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
