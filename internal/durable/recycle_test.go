package durable

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"

	"met/internal/kv"
)

// TestScanValuesOutliveRecycledBlocks holds a Scan's rows while cold
// Gets evict blocks and read into their recycled buffers. Scan returns
// the caller's copies, made while its visit still pinned the blocks,
// and the visit released those blocks when it ended, so the Gets read
// into them: every held value must read as it did when it was scanned.
func TestScanValuesOutliveRecycledBlocks(t *testing.T) {
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 16 << 20,
		BlockBytes:         1 << 10,
		BlockCacheBytes:    2 << 10, // two blocks: nearly every Get misses and evicts
		OpenBackend:        Opener(t.TempDir(), Options{NoSync: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2000
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	val := func(i int) string { return fmt.Sprintf("value-%05d-%090d", i, i) }
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const from, to = 100, 400 // ~35 blocks
	rows, err := s.Scan(key(from), key(to), -1)
	if err != nil || len(rows) != to-from {
		t.Fatalf("Scan = %d rows, %v; want %d", len(rows), err, to-from)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for range 5000 {
		i := rng.IntN(n)
		if got, err := s.Get(key(i)); err != nil || string(got) != val(i) {
			t.Fatalf("Get(%s) = %q, %v", key(i), got, err)
		}
	}
	for j, r := range rows {
		if i := from + j; r.Key != key(i) || string(r.Value) != val(i) {
			t.Fatalf("held Scan row %d = %s %q, want %s %q", j, r.Key, r.Value, key(i), val(i))
		}
	}
}

// TestSharedCacheSameFileID opens two stores over one block cache, each
// on a directory whose SSTable has the same file id but different rows,
// as a server does after adopting a region whose files another process
// minted. Every Get and Scan must return its own store's values: a
// cache keyed by the persisted id serves one store the other's blocks.
func TestSharedCacheSameFileID(t *testing.T) {
	const n = 300
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	val := func(name string, i int) string { return fmt.Sprintf("%s-%04d", name, i) }
	cache := kv.NewBlockCache(1 << 20)
	names := []string{"a", "b"}
	stores := make([]*kv.Store, len(names))
	for j, name := range names {
		dir := t.TempDir()
		entries := make([]kv.Entry, n)
		for i := range entries {
			entries[i] = kv.Entry{Key: key(i), Value: []byte(val(name, i)), Timestamp: uint64(i + 1)}
		}
		if _, err := writeSSTable(filepath.Join(dir, SSTableFileName(7)), entries, 512, Options{}.withDefaults(), 0); err != nil {
			t.Fatal(err)
		}
		s, err := kv.OpenStore(kv.Config{BlockBytes: 512, Cache: cache, OpenBackend: Opener(dir, Options{NoSync: true})})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		stores[j] = s
	}
	for i := 0; i < n; i++ {
		for j, s := range stores {
			if got, err := s.Get(key(i)); err != nil || string(got) != val(names[j], i) {
				t.Fatalf("store %s: Get(%s) = %q, %v; want %q", names[j], key(i), got, err, val(names[j], i))
			}
		}
	}
	for j, s := range stores {
		rows, err := s.Scan("", "", -1)
		if err != nil || len(rows) != n {
			t.Fatalf("store %s: Scan = %d rows, %v; want %d", names[j], len(rows), err, n)
		}
		for i, r := range rows {
			if r.Key != key(i) || string(r.Value) != val(names[j], i) {
				t.Fatalf("store %s: Scan row %d = %s %q, want %s %q", names[j], i, r.Key, r.Value, key(i), val(names[j], i))
			}
		}
	}
}

// TestCompactionRacingColdReads compacts a stack of SSTables while Gets
// and Scans miss a two-block cache and read into recycled buffers. The
// merge holds entries that alias the blocks it loaded until it writes
// them, so it keeps those blocks pinned: the compacted file must hold
// exactly the rows the inputs did, newest version per key, and so must
// a reopened store that reads them from disk.
func TestCompactionRacingColdReads(t *testing.T) {
	dir := t.TempDir()
	open := func() *kv.Store {
		s, err := kv.OpenStore(kv.Config{
			MemstoreFlushBytes: 16 << 20,
			BlockBytes:         1 << 10,
			BlockCacheBytes:    2 << 10,
			OpenBackend:        Opener(dir, Options{NoSync: true}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const n, files, rounds = 2000, 4, 3
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	val := func(i, v int) string { return fmt.Sprintf("value-%05d-v%d-%080d", i, v, i) }
	want := make([]string, n)
	check := func(rows []kv.Entry) error {
		for _, r := range rows {
			var i int
			if _, err := fmt.Sscanf(r.Key, "k%d", &i); err != nil || string(r.Value) != want[i] {
				return fmt.Errorf("row %s = %q, want %q", r.Key, r.Value, want[i])
			}
		}
		return nil
	}
	s := open()
	for round := range rounds {
		// File v rewrites every key i with i%files >= v, so each key's
		// newest version sits in a different file.
		for v := round * files; v < (round+1)*files; v++ {
			for i := 0; i < n; i++ {
				if i%files >= v%files {
					if err := s.Put(key(i), []byte(val(i, v))); err != nil {
						t.Fatal(err)
					}
					want[i] = val(i, v)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg, started sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(g)))
				for op := 0; ; op++ {
					if op == 10 { // the compaction starts once both readers run
						started.Done()
					}
					select {
					case <-stop:
						return
					default:
					}
					i := rng.IntN(n)
					if got, err := s.Get(key(i)); err != nil || string(got) != want[i] {
						t.Errorf("Get(%s) = %q, %v; want %q", key(i), got, err, want[i])
					}
					rows, err := s.Scan(key(i), "", 30)
					if err == nil {
						err = check(rows)
					}
					if err != nil {
						t.Errorf("Scan(%s): %v", key(i), err)
					}
				}
			}()
		}
		started.Wait()
		err := s.Compact(true)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumFiles(); got != 1 {
			t.Fatalf("%d files after a major compaction, want 1", got)
		}
		s.Close()
		s = open()
		rows, err := s.Scan("", "", -1)
		if err != nil || len(rows) != n {
			t.Fatalf("round %d: reopened Scan = %d rows, %v; want %d", round, len(rows), err, n)
		}
		if err := check(rows); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	s.Close()
}
