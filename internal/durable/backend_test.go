package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"met/internal/kv"
)

// openDurableStore opens a kv.Store over dir with small thresholds so
// tests exercise flushes and rotation quickly.
func openDurableStore(t *testing.T, dir string) *kv.Store {
	t.Helper()
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 4 << 10,
		BlockBytes:         1 << 10,
		OpenBackend:        Opener(dir, Options{SegmentBytes: 8 << 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurableStorePutGetScanFlush(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	defer s.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumFiles() == 0 {
		t.Fatal("no flushes despite small memstore threshold")
	}
	ssts, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if len(ssts) != s.NumFiles() {
		t.Fatalf("on-disk files %d != engine files %d", len(ssts), s.NumFiles())
	}
	for i := 0; i < n; i += 17 {
		v, err := s.Get(fmt.Sprintf("key-%04d", i))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	entries, err := s.Scan("key-0100", "key-0110", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("scan returned %d entries, want 10", len(entries))
	}
}

// TestCrashRecoveryAcknowledgedWrites is the acceptance scenario: N
// acknowledged Puts, a hard kill (the store is abandoned without Close
// and the log grows a torn final record), and a reopen from the on-disk
// state must serve all N.
func TestCrashRecoveryAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumFiles() == 0 {
		t.Fatal("test wants a mix of flushed files and WAL tail")
	}
	// Hard kill: no Close, no final fsync. Then tear the log's tail the
	// way a crash mid-write does.
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 0, 0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openDurableStore(t, dir)
	defer s2.Close()
	for i := 0; i < n; i++ {
		v, err := s2.Get(fmt.Sprintf("key-%04d", i))
		if err != nil {
			t.Fatalf("acknowledged key-%04d lost after crash: %v", i, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%04d corrupted: %q", i, v)
		}
	}
	if s2.Stats().MemstoreCurrent == 0 {
		t.Fatal("expected WAL entries to replay")
	}
}

func TestReopenAfterCleanCloseContinuesTimestamps(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := openDurableStore(t, dir)
	defer s2.Close()
	// Overwrites after reopen must shadow recovered versions — the
	// logical clock has to resume past every recovered timestamp.
	if err := s2.Put("k00", []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, err := s2.Get("k00")
	if err != nil || string(v) != "new" {
		t.Fatalf("overwrite after reopen lost: %q, %v", v, err)
	}
}

func TestDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	if err := s.Put("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kept", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openDurableStore(t, dir)
	defer s2.Close()
	if _, err := s2.Get("gone"); err != kv.ErrNotFound {
		t.Fatalf("tombstone lost across reopen: %v", err)
	}
	if v, err := s2.Get("kept"); err != nil || string(v) != "y" {
		t.Fatalf("kept key: %q, %v", v, err)
	}
}

func TestCompactionRewritesDisk(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	defer s.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumFiles() < 2 {
		t.Fatalf("files = %d, want several before compaction", s.NumFiles())
	}
	if err := s.Compact(true); err != nil {
		t.Fatal(err)
	}
	ssts, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if len(ssts) != 1 {
		t.Fatalf("on-disk sstables after major compaction = %d, want 1", len(ssts))
	}
	for i := 0; i < 100; i++ {
		v, err := s.Get(fmt.Sprintf("k%03d", i))
		if err != nil || string(v) != "r2" {
			t.Fatalf("k%03d after compaction: %q, %v", i, v, err)
		}
	}
}

// TestCompactionReleasesRetiredReaders pins the fd-reclamation path:
// once a compaction retires SSTables and no scan is in flight, their
// readers (fd + in-memory index/bloom) are released, not held until the
// backend closes.
func TestCompactionReleasesRetiredReaders(t *testing.T) {
	dir := t.TempDir()
	backend, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 64 << 20,
		BlockBytes:         1 << 10,
		OpenBackend:        func() (kv.StorageBackend, error) { return backend, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var oldIDs []uint64
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			if err := s.Put(fmt.Sprintf("k%03d", i), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, fi := range s.FileInfos() {
		oldIDs = append(oldIDs, fi.ID)
	}
	if err := s.Compact(true); err != nil {
		t.Fatal(err)
	}
	for _, id := range oldIDs {
		if backend.Reader(id) != nil {
			t.Fatalf("retired file %d still holds an open reader", id)
		}
	}
	infos := s.FileInfos()
	if len(infos) != 1 || backend.Reader(infos[0].ID) == nil {
		t.Fatalf("compacted output reader missing: %v", infos)
	}
}

func TestWALTruncatedAfterFlush(t *testing.T) {
	dir := t.TempDir()
	backend, err := Open(dir, Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 64 << 20, // manual flushes only
		BlockBytes:         1 << 10,
		OpenBackend:        func() (kv.StorageBackend, error) { return backend, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte("some value payload")); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(mustReplay(t, backend.log)); n != 200 {
		t.Fatalf("wal holds %d records before flush", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(mustReplay(t, backend.log)); n != 0 {
		t.Fatalf("wal holds %d records after flush, want 0 (whole-segment truncation)", n)
	}
}

func TestConcurrentDurablePutsAllRecovered(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-k%03d", g, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Hard kill (no Close), reopen, everything acknowledged is there.
	s2 := openDurableStore(t, dir)
	defer s2.Close()
	for g := 0; g < workers; g++ {
		for i := 0; i < per; i++ {
			key := fmt.Sprintf("w%d-k%03d", g, i)
			v, err := s2.Get(key)
			if err != nil || string(v) != key {
				t.Fatalf("%s lost after concurrent writes + crash: %q, %v", key, v, err)
			}
		}
	}
}

func TestBackendLoadSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openDurableStore(t, dir)
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// A crashed flush leaves a temp file; reopen must ignore and remove it.
	tmp := filepath.Join(dir, "sst-9999.sst.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openDurableStore(t, dir)
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover temp file not cleaned up")
	}
	if v, err := s2.Get("k000"); err != nil || string(v) != "value" {
		t.Fatalf("data lost: %q, %v", v, err)
	}
}

// TestNewestVersionAcrossBlockBoundarySurvivesReopen: one key rewritten
// often enough inside one memstore that its versions overflow an
// SSTable block (70 x 1 000 B at 64 KB blocks); Get must return the
// last value from the flushed file, and again after a reopen.
func TestNewestVersionAcrossBlockBoundarySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *kv.Store {
		s, err := kv.OpenStore(kv.Config{
			MemstoreFlushBytes: 1 << 20,
			BlockBytes:         64 << 10,
			OpenBackend:        Opener(dir, Options{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for v := 0; v < 70; v++ {
		want = make([]byte, 1000)
		copy(want, fmt.Sprintf("version-%02d#", v))
		if err := s.Put("k", want); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != string(want) {
		t.Fatalf("Get after flush = %.12q, %v; want %.12q", got, err, want)
	}
	s.Close()
	s = open()
	defer s.Close()
	if got, err := s.Get("k"); err != nil || string(got) != string(want) {
		t.Fatalf("Get after reopen = %.12q, %v; want %.12q", got, err, want)
	}
}
