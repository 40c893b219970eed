package obs

import "time"

// Span is one timed stage of a traced operation. Stages appear in the
// order they completed; the same stage name may repeat (a Get that
// consults three SSTables records three "sstable-read" spans).
type Span struct {
	Stage string        `json:"stage"`
	Dur   time.Duration `json:"dur_ns"`
}

// Trace is a per-operation trace context threaded through the hot path
// (routing → memstore → bloom → block cache → SSTable reads). Every
// method is nil-safe: a nil *Trace is the disabled state and costs one
// pointer check per call site — no clock reads, no allocation — so the
// serving path carries trace plumbing unconditionally and only pays
// when a slow-op threshold armed tracing for the operation.
//
// A Trace is owned by the goroutine serving the operation and is not
// safe for concurrent use.
type Trace struct {
	Op    string
	Table string
	Key   string
	start time.Time
	spans []Span
}

// StartTrace begins tracing an operation. The spans slice is
// preallocated so typical traces never reallocate mid-operation.
func StartTrace(op, table, key string) *Trace {
	return &Trace{Op: op, Table: table, Key: key, start: time.Now(), spans: make([]Span, 0, 8)}
}

// StartSpan returns the clock for a stage about to run, or the zero
// time without touching the clock when the trace is nil.
func (t *Trace) StartSpan() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndSpan records a span for stage covering start..now. No-op on a nil
// trace.
func (t *Trace) EndSpan(stage string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Stage: stage, Dur: time.Since(start)})
}

// Start returns the trace's start time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Spans returns the recorded spans (nil on a nil trace). The slice is
// the trace's own backing store; callers snapshotting it into a slow-op
// log must be done appending first.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}
