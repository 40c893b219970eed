package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestSlowLogWraparound(t *testing.T) {
	l := NewSlowLog(4)
	for i := 0; i < 10; i++ {
		l.Record(SlowOp{Key: fmt.Sprintf("k%d", i), Total: time.Duration(i)})
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d ops, want 4", len(got))
	}
	for i, op := range got {
		want := fmt.Sprintf("k%d", 6+i) // oldest retained is #6, oldest-first
		if op.Key != want {
			t.Fatalf("snapshot[%d].Key = %q, want %q", i, op.Key, want)
		}
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
}

func TestSlowLogPartialFill(t *testing.T) {
	l := NewSlowLog(8)
	for i := 0; i < 3; i++ {
		l.Record(SlowOp{Key: fmt.Sprintf("k%d", i)})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d ops, want 3", len(got))
	}
	for i, op := range got {
		if want := fmt.Sprintf("k%d", i); op.Key != want {
			t.Fatalf("snapshot[%d].Key = %q, want %q", i, op.Key, want)
		}
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var l *SlowLog
	l.Record(SlowOp{})
	l.Observe(StartTrace("get", "t", "k"), time.Second)
	if l.Snapshot() != nil || l.Total() != 0 {
		t.Fatal("nil SlowLog not inert")
	}
}

func TestSlowLogObserve(t *testing.T) {
	l := NewSlowLog(2)
	tr := StartTrace("get", "tbl", "row9")
	st := tr.StartSpan()
	tr.EndSpan("memstore", st)
	tr.spans = append(tr.spans, Span{Stage: "sstable-read", Dur: 5 * time.Millisecond})
	l.Observe(tr, 6*time.Millisecond)
	ops := l.Snapshot()
	if len(ops) != 1 {
		t.Fatalf("got %d ops, want 1", len(ops))
	}
	op := ops[0]
	if op.Op != "get" || op.Table != "tbl" || op.Key != "row9" || op.Total != 6*time.Millisecond {
		t.Fatalf("unexpected slow op %+v", op)
	}
	if len(op.Spans) != 2 || op.Spans[1].Stage != "sstable-read" || op.Spans[1].Dur != 5*time.Millisecond {
		t.Fatalf("unexpected spans %+v", op.Spans)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	st := tr.StartSpan()
	if !st.IsZero() {
		t.Fatal("nil trace StartSpan read the clock")
	}
	tr.EndSpan("x", st)
	if tr.Spans() != nil || !tr.Start().IsZero() {
		t.Fatal("nil trace not inert")
	}
}
