package kv_test

import (
	"errors"
	"fmt"
	"testing"

	"met/internal/durable"
	"met/internal/kv"
)

var errAppend = errors.New("log closed")

// fakeWAL is an in-memory kv.WAL whose failAt-th AppendBuffered fails
// (0: never).
type fakeWAL struct {
	entries []kv.Entry
	appends int
	failAt  int
}

func (w *fakeWAL) AppendBuffered(e kv.Entry) (func() error, error) {
	w.appends++
	if w.appends == w.failAt {
		return nil, errAppend
	}
	e.Value = append([]byte(nil), e.Value...)
	w.entries = append(w.entries, e)
	return func() error { return nil }, nil
}

func (w *fakeWAL) Truncate(upTo uint64) {
	var kept []kv.Entry
	for _, e := range w.entries {
		if e.Timestamp > upTo {
			kept = append(kept, e)
		}
	}
	w.entries = kept
}

func (w *fakeWAL) Replay() ([]kv.Entry, error) { return w.entries, nil }

// openOverLog opens a store whose log is w and whose files live in dir.
func openOverLog(t *testing.T, dir string, w kv.WAL) *kv.Store {
	t.Helper()
	s, err := kv.OpenStore(kv.Config{
		WAL:         w,
		OpenBackend: durable.Opener(dir, durable.Options{ExternalWAL: true, NoSync: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestWALRecovery: a store opened over a log replays it — the crash
// path, minus the crash.
func TestWALRecovery(t *testing.T) {
	w := &fakeWAL{}
	s := openOverLog(t, t.TempDir(), w)
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Delete("a")

	s2 := openOverLog(t, t.TempDir(), w)
	if got, want := s2.Stats().MemstoreCurrent, s.Stats().MemstoreCurrent; got != want {
		t.Fatalf("replayed memstore holds %d bytes, want the original's %d", got, want)
	}
	if _, err := s2.Get("a"); err != kv.ErrNotFound {
		t.Fatalf("a err = %v", err)
	}
	if v, err := s2.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("b = %q, %v", v, err)
	}
	if got := s2.MaxTimestamp(); got != 3 {
		t.Fatalf("clock resumed at %d, want 3", got)
	}
}

func TestWALTruncatedOnFlush(t *testing.T) {
	w := &fakeWAL{}
	s := openOverLog(t, t.TempDir(), w)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if len(w.entries) != 10 {
		t.Fatalf("wal len = %d", len(w.entries))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(w.entries) != 0 {
		t.Fatalf("wal not truncated: %d", len(w.entries))
	}
	s.Put("post", []byte("v"))
	if len(w.entries) != 1 {
		t.Fatalf("wal len = %d", len(w.entries))
	}
}

// TestFailedAppendBurnsNoTimestamp: a mutation the log refused was never
// acknowledged, so it must not advance the clock — failover counts
// MaxTimestamp minus the recovered timestamp as lost writes, and a
// burned timestamp is a phantom loss. After a failed single Put and
// after a batch failing midway, the clock equals the newest logged
// timestamp and the next write gets the next dense one.
func TestFailedAppendBurnsNoTimestamp(t *testing.T) {
	logged := func(w *fakeWAL) uint64 { return w.entries[len(w.entries)-1].Timestamp }

	w := &fakeWAL{failAt: 3}
	s := kv.NewStore(kv.Config{WAL: w})
	defer s.Close()
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if err := s.Put("c", []byte("3")); !errors.Is(err, errAppend) {
		t.Fatalf("Put over a failing log = %v", err)
	}
	if got := s.MaxTimestamp(); got != 2 || logged(w) != 2 {
		t.Fatalf("clock %d after a failed Put, newest logged %d, want both 2", got, logged(w))
	}
	if _, err := s.Get("c"); err != kv.ErrNotFound {
		t.Fatalf("refused write is readable: %v", err)
	}

	// Batches: the 2nd record of the import (6th append) and the 2nd of
	// the replay (8th) fail.
	batch := []kv.Entry{{Key: "d", Value: []byte("4")}, {Key: "e", Value: []byte("5")}, {Key: "f", Value: []byte("6")}}
	w.failAt = 6
	s.Put("c", []byte("3")) // ts 3
	if err := s.ImportEntries(batch); !errors.Is(err, errAppend) {
		t.Fatalf("ImportEntries over a failing log = %v", err)
	}
	if got := s.MaxTimestamp(); got != 4 || logged(w) != 4 {
		t.Fatalf("clock %d after a half-failed import, newest logged %d, want both 4", got, logged(w))
	}
	w.failAt = 8
	replay := []kv.Entry{{Key: "g", Value: []byte("7"), Timestamp: 5}, {Key: "h", Value: []byte("8"), Timestamp: 6}}
	if n, err := s.ApplyReplayed(replay); n != 1 || !errors.Is(err, errAppend) {
		t.Fatalf("ApplyReplayed over a failing log = %d, %v; want 1 applied and the error", n, err)
	}
	if got := s.MaxTimestamp(); got != 5 || logged(w) != 5 {
		t.Fatalf("clock %d after a half-failed replay, newest logged %d, want both 5", got, logged(w))
	}
	if err := s.Put("i", []byte("9")); err != nil {
		t.Fatal(err)
	}
	if got := logged(w); got != 6 {
		t.Fatalf("next write stamped %d, want the dense 6", got)
	}
}
