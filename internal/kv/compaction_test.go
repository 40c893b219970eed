package kv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedBackend is an in-memory StorageBackend whose Create can be made
// to block: the deterministic stand-in for "a compaction is doing slow
// disk I/O right now".
type gatedBackend struct {
	mu    sync.Mutex
	files map[uint64]*StoreFile

	// armed, entered, gate orchestrate one gated Create: when armed,
	// Create signals entered and then blocks until gate is closed.
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		files:   make(map[uint64]*StoreFile),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
}

func (g *gatedBackend) WAL() WAL { return nil }

func (g *gatedBackend) Create(id uint64, entries []Entry, blockBytes int) (*StoreFile, error) {
	f := BuildStoreFile(id, entries, blockBytes)
	g.mu.Lock()
	g.files[id] = f
	g.mu.Unlock()
	if g.armed.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return f, nil
}

func (g *gatedBackend) Remove(id uint64) error {
	g.mu.Lock()
	delete(g.files, id)
	g.mu.Unlock()
	return nil
}

func (g *gatedBackend) Load(blockBytes int) ([]*StoreFile, error) { return nil, nil }
func (g *gatedBackend) Close() error                              { return nil }

// openGatedStore builds a store over a gated backend with n flushed
// files of distinct keys.
func openGatedStore(t *testing.T, n int) (*Store, *gatedBackend) {
	t.Helper()
	g := newGatedBackend()
	s, err := OpenStore(Config{
		MemstoreFlushBytes: 1 << 30, // flushes only when asked
		MaxStoreFiles:      100,     // no automatic compaction
		BlockBytes:         256,
		OpenBackend:        func() (StorageBackend, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < n; b++ {
		for i := 0; i < 20; i++ {
			if err := s.Put(fmt.Sprintf("b%02d-k%03d", b, i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumFiles(); got != n {
		t.Fatalf("setup flushed %d files, want %d", got, n)
	}
	return s, g
}

// TestPutsProceedDuringCompaction is the acceptance regression for the
// background-compaction subsystem: while a compaction is blocked deep
// inside its backend write (simulated disk I/O), Puts, Gets and Scans
// must all complete — i.e. no compaction I/O happens under the store
// write lock. Before this subsystem, the compaction ran inside the lock
// and this test would deadlock-timeout.
func TestPutsProceedDuringCompaction(t *testing.T) {
	s, g := openGatedStore(t, 3)
	defer s.Close()
	ids := make([]uint64, 0, 3)
	for _, fs := range s.FileStats() {
		ids = append(ids, fs.ID)
	}

	g.armed.Store(true)
	compDone := make(chan error, 1)
	go func() {
		_, err := s.CompactFiles(CompactionSelection{IDs: ids})
		compDone <- err
	}()
	<-g.entered // compaction is now mid-"disk write"

	// Serving must proceed while the compaction is in flight.
	served := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if err := s.Put(fmt.Sprintf("live-%03d", i), []byte("x")); err != nil {
				served <- err
				return
			}
		}
		if _, err := s.Get("live-000"); err != nil {
			served <- err
			return
		}
		if _, err := s.Scan("b00", "b01", -1); err != nil {
			served <- err
			return
		}
		served <- nil
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serving failed during in-flight compaction: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Puts blocked behind an in-flight compaction — compaction I/O is back under the write lock")
	}
	select {
	case err := <-compDone:
		t.Fatalf("compaction finished while gated: %v", err)
	default:
	}

	g.armed.Store(false)
	close(g.gate)
	if err := <-compDone; err != nil {
		t.Fatalf("compaction: %v", err)
	}
	if got := s.NumFiles(); got != 1 {
		t.Fatalf("files after compaction = %d, want 1", got)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Get(fmt.Sprintf("live-%03d", i)); err != nil {
			t.Fatalf("write acknowledged during compaction lost: %v", err)
		}
	}
	for b := 0; b < 3; b++ {
		if _, err := s.Get(fmt.Sprintf("b%02d-k%03d", b, 7)); err != nil {
			t.Fatalf("compacted key lost: %v", err)
		}
	}
}

// TestCompactFilesSubsetKeepsTombstones: a compaction that does not
// reach the oldest file must keep tombstones (they still shadow older
// files), even when asked for a major compaction; a whole-stack major
// drops them.
func TestCompactFilesSubsetKeepsTombstones(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 1 << 30, MaxStoreFiles: 100, BlockBytes: 256})
	defer s.Close()
	// f1 (oldest): a=1. f2: tombstone a. f3 (newest): b.
	mustPut := func(k, v string) {
		t.Helper()
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("a", "1")
	s.Flush()
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	mustPut("b", "2")
	s.Flush()

	stats := s.FileStats() // newest first: [f3, f2, f1]
	if len(stats) != 3 {
		t.Fatalf("files = %d", len(stats))
	}
	// Merge the two newest; the tombstone must survive the merge.
	if _, err := s.CompactFiles(CompactionSelection{IDs: []uint64{stats[0].ID, stats[1].ID}, Major: true}); err != nil {
		t.Fatal(err)
	}
	if got := s.NumFiles(); got != 2 {
		t.Fatalf("files = %d, want 2", got)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone dropped by a partial compaction: Get(a) = %v, want ErrNotFound", err)
	}
	merged := s.FileStats()[0]
	if merged.Entries != 2 {
		t.Fatalf("merged file entries = %d, want 2 (b + kept tombstone)", merged.Entries)
	}

	// Whole-stack major: tombstone and its shadowed version both go.
	if err := s.Compact(true); err != nil {
		t.Fatal(err)
	}
	if got := s.FileStats()[0].Entries; got != 1 {
		t.Fatalf("entries after full major = %d, want just b", got)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(a) after major = %v", err)
	}
	if v, err := s.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
}

// TestCompactFilesRejectsBadSelections: stale or non-contiguous
// selections fail with ErrCompactionConflict so a scheduler re-plans
// instead of corrupting the stack.
func TestCompactFilesRejectsBadSelections(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 1 << 30, MaxStoreFiles: 100, BlockBytes: 256})
	defer s.Close()
	for b := 0; b < 3; b++ {
		s.Put(fmt.Sprintf("k%d", b), []byte("v"))
		s.Flush()
	}
	stats := s.FileStats()

	// Non-contiguous run (newest + oldest, skipping the middle).
	_, err := s.CompactFiles(CompactionSelection{IDs: []uint64{stats[0].ID, stats[2].ID}})
	if !errors.Is(err, ErrCompactionConflict) {
		t.Fatalf("non-contiguous selection: err = %v, want ErrCompactionConflict", err)
	}
	// Unknown ID.
	_, err = s.CompactFiles(CompactionSelection{IDs: []uint64{stats[0].ID, 999999}})
	if !errors.Is(err, ErrCompactionConflict) {
		t.Fatalf("unknown id: err = %v, want ErrCompactionConflict", err)
	}
	// Stale: compact everything, then replay the old selection.
	old := []uint64{stats[0].ID, stats[1].ID, stats[2].ID}
	if err := s.Compact(false); err != nil {
		t.Fatal(err)
	}
	_, err = s.CompactFiles(CompactionSelection{IDs: old})
	if !errors.Is(err, ErrCompactionConflict) {
		t.Fatalf("stale selection: err = %v, want ErrCompactionConflict", err)
	}
	// The failures must not have harmed the data.
	for b := 0; b < 3; b++ {
		if _, err := s.Get(fmt.Sprintf("k%d", b)); err != nil {
			t.Fatalf("Get after rejected selections: %v", err)
		}
	}
}

// recordingTrigger collects CompactionNeeded notifications.
type recordingTrigger struct {
	mu    sync.Mutex
	calls []CompactionPressure
}

func (r *recordingTrigger) CompactionNeeded(_ *Store, p CompactionPressure) {
	r.mu.Lock()
	r.calls = append(r.calls, p)
	r.mu.Unlock()
}

// TestFlushTriggersCompactorInsteadOfInline: with a host Compactor, crossing MaxStoreFiles must notify the trigger and leave
// the files alone (no inline merge under the lock).
func TestFlushTriggersCompactorInsteadOfInline(t *testing.T) {
	trig := &recordingTrigger{}
	s := NewStore(Config{MemstoreFlushBytes: 1 << 30, MaxStoreFiles: 2, BlockBytes: 256, Host: Host{Compactor: trig}})
	defer s.Close()
	for b := 0; b < 4; b++ {
		s.Put(fmt.Sprintf("k%d", b), []byte("v"))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumFiles(); got != 4 {
		t.Fatalf("files = %d, want 4 (no inline compaction with a Compactor)", got)
	}
	trig.mu.Lock()
	calls := len(trig.calls)
	last := CompactionPressure{}
	if calls > 0 {
		last = trig.calls[calls-1]
	}
	trig.mu.Unlock()
	if calls == 0 {
		t.Fatal("compactor never notified")
	}
	if last.NumFiles <= 2 || last.TotalBytes <= 0 {
		t.Fatalf("pressure = %+v", last)
	}

	// Without a Compactor the store serves itself: the Flush that crossed
	// the threshold merges the stack (through CompactFiles, off the write
	// lock) before it returns.
	s2 := NewStore(Config{MemstoreFlushBytes: 1 << 30, MaxStoreFiles: 2, BlockBytes: 256})
	defer s2.Close()
	for b := 0; b < 4; b++ {
		s2.Put(fmt.Sprintf("k%d", b), []byte("v"))
		if err := s2.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.NumFiles(); got > 2 {
		t.Fatalf("self-service path: files = %d, want <= 2", got)
	}
	if st := s2.Stats(); st.Compactions == 0 || st.CompactionBytesWritten == 0 {
		t.Fatalf("self-service compaction not accounted: %+v", st)
	}
}

// TestWriteStallAccountsAndReleases: at the hard ceiling a writer
// stalls; the stall is accounted (never hidden) and a compaction that
// shrinks the stack releases it long before the stall timeout. The
// host's counters hear of every flush and stall.
func TestWriteStallAccountsAndReleases(t *testing.T) {
	trig := &recordingTrigger{}
	var host Counters
	s := NewStore(Config{
		MemstoreFlushBytes: 1 << 30,
		MaxStoreFiles:      2,
		StallTimeout:       100 * time.Millisecond,
		BlockBytes:         256,
		Host:               Host{Compactor: trig, HardMaxStoreFiles: 3, Counters: &host},
	})
	defer s.Close()
	for b := 0; b < 3; b++ {
		s.Put(fmt.Sprintf("k%d", b), []byte("v"))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// 3 files = hard ceiling; with nobody compacting, the next Put must
	// stall for the full timeout, then proceed.
	start := time.Now()
	if err := s.Put("stalled", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 100*time.Millisecond {
		t.Fatalf("write did not stall at the hard ceiling (took %v)", e)
	}
	st := s.Stats()
	if st.StallNanos < int64(100*time.Millisecond) || st.StalledWrites == 0 {
		t.Fatalf("stall not accounted: %+v", st)
	}
	flushTimes := host.Flush.Snapshot()
	if stalled, flushes := host.Snapshot().StallNanos, flushTimes.Count(); stalled != st.StallNanos || flushes != 3 {
		t.Fatalf("host counted %d ns of stall and %d timed flushes, want %d ns and 3", stalled, flushes, st.StallNanos)
	}

	// Now stall again, but release via a compaction: the Put must
	// return promptly, far inside the generous timeout.
	s.Flush() // 4 files, still over the ceiling
	cfg := s.Config()
	if cfg.StallTimeout != 100*time.Millisecond {
		t.Fatalf("config timeout = %v", cfg.StallTimeout)
	}
	done := make(chan error, 1)
	go func() { done <- s.Put("released", []byte("v")) }()
	time.Sleep(10 * time.Millisecond) // let the Put park at the gate
	if err := s.Compact(false); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write not released by the compaction")
	}
	if got := s.NumFiles(); got != 1 {
		t.Fatalf("files = %d", got)
	}
}

// TestStallQueueDepthGauge: NoteCompactionQueued must drive the
// Stats.CompactionQueueDepth gauge both ways.
func TestStallQueueDepthGauge(t *testing.T) {
	s := NewStore(Config{})
	defer s.Close()
	s.NoteCompactionQueued(1)
	if got := s.Stats().CompactionQueueDepth; got != 1 {
		t.Fatalf("depth = %d", got)
	}
	s.NoteCompactionQueued(-1)
	if got := s.Stats().CompactionQueueDepth; got != 0 {
		t.Fatalf("depth = %d", got)
	}
}

// TestWriteAmplificationReported: after flushes and a compaction the
// snapshot must report amplification = physical/logical > 0.
func TestWriteAmplificationReported(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 1 << 30, MaxStoreFiles: 100, BlockBytes: 256})
	defer s.Close()
	for b := 0; b < 3; b++ {
		for i := 0; i < 50; i++ {
			s.Put(fmt.Sprintf("b%d-k%02d", b, i), []byte("0123456789"))
		}
		s.Flush()
	}
	if err := s.Compact(false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.UserBytes <= 0 || st.FlushedBytes <= 0 || st.CompactionBytesWritten <= 0 {
		t.Fatalf("byte counters: %+v", st)
	}
	want := float64(st.FlushedBytes+st.CompactionBytesWritten) / float64(st.UserBytes)
	if st.WriteAmplification != want || st.WriteAmplification <= 1 {
		t.Fatalf("write amp = %v, want %v (> 1: flush + compaction rewrite)", st.WriteAmplification, want)
	}
	// Aggregation recomputes the ratio from summed counters.
	sum := st.Add(st)
	if sum.WriteAmplification != want {
		t.Fatalf("aggregated amp = %v, want %v", sum.WriteAmplification, want)
	}
}

// TestCompactFilesRacesFlushSafely: a flush landing between a
// compaction's snapshot and its swap must neither be lost nor block —
// the contiguous-run splice leaves the newer file on top.
func TestCompactFilesRacesFlushSafely(t *testing.T) {
	s, g := openGatedStore(t, 3)
	defer s.Close()
	ids := make([]uint64, 0, 3)
	for _, fs := range s.FileStats() {
		ids = append(ids, fs.ID)
	}
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := s.CompactFiles(CompactionSelection{IDs: ids, Major: true})
		done <- err
	}()
	<-g.entered
	// Flush a new file mid-compaction.
	if err := s.Put("mid-flight", []byte("v")); err != nil {
		t.Fatal(err)
	}
	g.armed.Store(false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(g.gate)
	if err := <-done; err != nil {
		t.Fatalf("compaction racing flush: %v", err)
	}
	if got := s.NumFiles(); got != 2 {
		t.Fatalf("files = %d, want 2 (mid-flight flush + merged)", got)
	}
	if _, err := s.Get("mid-flight"); err != nil {
		t.Fatalf("flush during compaction lost: %v", err)
	}
	for b := 0; b < 3; b++ {
		if _, err := s.Get(fmt.Sprintf("b%02d-k%03d", b, 3)); err != nil {
			t.Fatalf("compacted key lost: %v", err)
		}
	}
}
