package durable

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"met/internal/kv"
)

// crashBackend wraps the real durable backend so a test can freeze it at
// the two crash points of a background compaction: right after the
// merged SSTable became durable (but before the engine swapped it in),
// and right before the retired inputs are unlinked. Freezing — and then
// simply abandoning the frozen store while a fresh one reopens the same
// directory — is the unit-test equivalent of a hard process kill at
// that instant.
type crashBackend struct {
	inner *Backend
	// mode: 0 = pass-through, 1 = freeze inside Create (after the
	// durable write), 2 = freeze at the first Remove (before unlink).
	mode    atomic.Int32
	entered chan struct{}
	frozen  chan struct{} // never closed: the "process" dies here
}

func (c *crashBackend) freeze() {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	<-c.frozen // parked forever: the crashed process never resumes
}

func (c *crashBackend) WAL() kv.WAL { return c.inner.WAL() }

func (c *crashBackend) Create(id uint64, entries []kv.Entry, blockBytes int) (*kv.StoreFile, error) {
	f, err := c.inner.Create(id, entries, blockBytes)
	if err == nil && c.mode.Load() == 1 {
		c.freeze()
	}
	return f, err
}

func (c *crashBackend) Remove(id uint64) error {
	if c.mode.Load() == 2 {
		c.freeze()
	}
	return c.inner.Remove(id)
}

func (c *crashBackend) Load(blockBytes int) ([]*kv.StoreFile, error) { return c.inner.Load(blockBytes) }
func (c *crashBackend) Close() error                                 { return c.inner.Close() }

// crashStoreConfig opens a durable store in dir behind a crashBackend,
// with flush sizes small enough that a few hundred puts produce a real
// SSTable stack.
func crashStoreConfig(dir string, cb **crashBackend) kv.Config {
	return kv.Config{
		MemstoreFlushBytes: 4 << 10,
		BlockBytes:         1 << 10,
		MaxStoreFiles:      1000, // no automatic compaction; the test drives it
		OpenBackend: func() (kv.StorageBackend, error) {
			b, err := Open(dir, Options{})
			if err != nil {
				return nil, err
			}
			*cb = &crashBackend{inner: b, entered: make(chan struct{}, 1), frozen: make(chan struct{})}
			return *cb, nil
		},
	}
}

// testCrashMidCompaction acknowledges 500 writes, freezes a background
// compaction at the given crash point, verifies serving continues past
// the frozen compaction, then reopens the directory as a fresh process
// would after a hard kill and requires every acknowledged write back.
func testCrashMidCompaction(t *testing.T, mode int32) {
	dir := t.TempDir()
	var cb *crashBackend
	s, err := kv.OpenStore(crashStoreConfig(dir, &cb))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxx")) }
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("k%04d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumFiles() < 2 {
		t.Fatalf("only %d SSTables; not enough to compact", s.NumFiles())
	}

	cb.mode.Store(mode)
	go s.CompactFiles(kv.CompactionSelection{}) // whole stack; will freeze
	select {
	case <-cb.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction never reached the crash point")
	}

	// The wedged compaction holds no engine lock: an acknowledged write
	// must still go through (and must survive the crash below).
	ackDone := make(chan error, 1)
	go func() { ackDone <- s.Put("k-last-ack", val(9999)) }()
	select {
	case err := <-ackDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put blocked behind a wedged compaction")
	}

	// Hard kill: the frozen store is abandoned without Close (its
	// compaction goroutine stays parked forever, like a killed
	// process's threads), and recovery opens the same directory.
	fresh, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 4 << 10,
		BlockBytes:         1 << 10,
		MaxStoreFiles:      1000,
		OpenBackend:        func() (kv.StorageBackend, error) { return Open(dir, Options{}) },
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer fresh.Close()
	for i := 0; i < n; i++ {
		got, err := fresh.Get(fmt.Sprintf("k%04d", i))
		if err != nil {
			t.Fatalf("acknowledged write k%04d lost after crash mid-compaction: %v", i, err)
		}
		if string(got) != string(val(i)) {
			t.Fatalf("k%04d = %q, want %q", i, got, val(i))
		}
	}
	if _, err := fresh.Get("k-last-ack"); err != nil {
		t.Fatalf("write acknowledged during the compaction lost: %v", err)
	}
	// A fresh compaction on the recovered store reclaims any duplicated
	// files the crash left behind.
	if err := fresh.Compact(true); err != nil {
		t.Fatal(err)
	}
	if got := fresh.NumFiles(); got != 1 {
		t.Fatalf("files after recovery compaction = %d", got)
	}
}

// TestCrashAfterMergedSSTableDurable kills the process after the
// compaction's output file is fsynced but before the engine installed
// it: recovery sees both the merged file and its inputs; duplicated
// entries dedupe at read time.
func TestCrashAfterMergedSSTableDurable(t *testing.T) {
	testCrashMidCompaction(t, 1)
}

// TestCrashBeforeRetiredInputsUnlinked kills the process after the
// merged file was installed but before any retired input was unlinked.
func TestCrashBeforeRetiredInputsUnlinked(t *testing.T) {
	testCrashMidCompaction(t, 2)
}

// TestReopenDuringStalledMerge closes a store and reopens its directory,
// as hbase.Region.reopen does, while a merge on the old store is stalled
// right after writing its output. Close must wait for the merge, which
// then discards its output: a Close that returned at once would let the
// new store open the output file that the old store's merge unlinks
// when it resumes.
func TestReopenDuringStalledMerge(t *testing.T) {
	dir := t.TempDir()
	var cb *crashBackend
	s, err := kv.OpenStore(crashStoreConfig(dir, &cb))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("value-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumFiles() < 2 {
		t.Fatalf("only %d SSTables; not enough to compact", s.NumFiles())
	}
	cb.mode.Store(1)
	merged := make(chan error, 1)
	go func() {
		_, err := s.CompactFiles(kv.CompactionSelection{})
		merged <- err
	}()
	select {
	case <-cb.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the merge never wrote its output")
	}
	// Resume the merge once the new store is open, or after a while when
	// Close is (rightly) waiting for it.
	reopened := make(chan struct{})
	go func() {
		select {
		case <-reopened:
		case <-time.After(200 * time.Millisecond):
		}
		close(cb.frozen)
	}()
	s.Close()
	fresh, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 4 << 10,
		BlockBytes:         1 << 10,
		MaxStoreFiles:      1000,
		OpenBackend:        func() (kv.StorageBackend, error) { return Open(dir, Options{}) },
	})
	close(reopened)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fresh.Close()
	if err := <-merged; !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("merge on the closed store = %v, want kv.ErrClosed", err)
	}
	files, _ := fresh.ExportFiles()
	for _, f := range files {
		if _, err := os.Stat(f.Path); err != nil {
			t.Fatalf("SSTable %d of the reopened store is gone: %v", f.ID, err)
		}
	}
	for i := 0; i < n; i++ {
		if got, err := fresh.Get(fmt.Sprintf("k%04d", i)); err != nil || string(got) != fmt.Sprintf("value-%04d", i) {
			t.Fatalf("k%04d = %q, %v after the reopen", i, got, err)
		}
	}
}
