package kv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreConcurrentReadersAndWriters runs parallel Gets and Scans
// against a store while writers, explicit flushes and compactions churn
// the file stack — the reader/writer split must deliver raw data races
// never, torn entries never, and ErrNotFound only for keys not yet
// written. Run under -race this is the engine's concurrency proof.
func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 4 << 10, BlockBytes: 1 << 10, MaxStoreFiles: 3})
	key := func(i int) string { return fmt.Sprintf("k%04d", i%500) }
	for i := 0; i < 500; i++ {
		if err := s.Put(key(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	const readers, writers = 6, 2
	var wg sync.WaitGroup
	var failure atomic.Value
	fail := func(format string, args ...any) {
		failure.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := key(i*7 + w)
				if err := s.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					fail("put %s: %v", k, err)
					return
				}
				if i%50 == 0 {
					s.Flush()
				}
				if i%150 == 0 {
					s.Compact(true)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := key(i*3 + r)
				v, err := s.Get(k)
				if err != nil {
					fail("get %s: %v", k, err) // every key was seeded
					return
				}
				if len(v) == 0 {
					fail("get %s returned empty value", k)
					return
				}
				if i%10 == 0 {
					entries, err := s.Scan(k, "", 10)
					if err != nil {
						fail("scan from %s: %v", k, err)
						return
					}
					for j := 1; j < len(entries); j++ {
						if entries[j].Key <= entries[j-1].Key {
							fail("scan out of order: %s <= %s", entries[j].Key, entries[j-1].Key)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Counters survived the stampede without losing operations.
	st := s.Stats()
	if st.Gets != readers*400 {
		t.Fatalf("gets = %d, want %d", st.Gets, readers*400)
	}
	if st.Puts != 500+writers*400 {
		t.Fatalf("puts = %d, want %d", st.Puts, 500+writers*400)
	}
	if st.Scans != readers*40 {
		t.Fatalf("scans = %d, want %d", st.Scans, readers*40)
	}
	// Every seeded key still resolves after all flush/compact churn.
	for i := 0; i < 500; i++ {
		if _, err := s.Get(key(i)); err != nil {
			t.Fatalf("key %s lost: %v", key(i), err)
		}
	}
}

// TestBlockCacheConcurrentSharing shares one BlockCache between two
// stores, as a region server does, and hits it from parallel readers
// while compactions invalidate files — exercising every locked path of
// the cache. The capacity holds only part of the two stores' blocks, so
// reads evict too.
func TestBlockCacheConcurrentSharing(t *testing.T) {
	const capacity = 8 << 10
	cache := NewBlockCache(capacity)
	mk := func(seed uint64) *Store {
		s := NewStore(Config{MemstoreFlushBytes: 2 << 10, BlockBytes: 512, Cache: cache, Seed: seed})
		for i := 0; i < 300; i++ {
			if err := s.Put(fmt.Sprintf("k%04d", i), []byte("0123456789abcdef")); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		return s
	}
	a, b := mk(1), mk(2)

	var wg sync.WaitGroup
	var failure atomic.Value
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stores := [2]*Store{a, b}
			for i := 0; i < 500; i++ {
				s := stores[(i+r)%2]
				if _, err := s.Get(fmt.Sprintf("k%04d", (i*13+r)%300)); err != nil {
					failure.CompareAndSwap(nil, fmt.Sprintf("get: %v", err))
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			a.Compact(true) // invalidates a's files in the shared cache
		}
	}()
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(msg)
	}
	if cache.Used() > capacity {
		t.Fatalf("cache over capacity: %d > %d", cache.Used(), capacity)
	}
}

// TestStoreCloseRacesReaders verifies Close concurrent with reads yields
// either a served value or ErrClosed — nothing else — mirroring what a
// region reopen exposes to in-flight requests.
func TestStoreCloseRacesReaders(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var failure atomic.Value
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				_, err := s.Get(fmt.Sprintf("k%03d", (i+r)%100))
				if err != nil && !errors.Is(err, ErrClosed) {
					failure.CompareAndSwap(nil, fmt.Sprintf("get: %v", err))
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		s.Close()
	}()
	close(start)
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// TestSealBlocksWritesServesReads pins the migration contract reopen
// and split rely on: after Seal, mutations fail with ErrClosed while
// reads keep working, and every previously acknowledged write is
// visible to the migration's scan; Unseal hands the store back.
func TestSealBlocksWritesServesReads(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 1 << 20})
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Seal()
	if err := s.Put("b", []byte("2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put on sealed store = %v, want ErrClosed", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete on sealed store = %v, want ErrClosed", err)
	}
	if v, err := s.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("get on sealed store = %q, %v", v, err)
	}
	entries, err := s.Scan("", "", -1)
	if err != nil || len(entries) != 1 {
		t.Fatalf("scan on sealed store = %v, %v", entries, err)
	}
	s.Unseal()
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatalf("put after unseal: %v", err)
	}
	if v, err := s.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("get after unseal = %q, %v", v, err)
	}
}

// TestScanNeverReturnsRowBelowStart scans from a fixed start key while
// a writer keeps inserting fresh keys just below it: whatever the
// interleaving of the Put with the scan's iterator set-up, no row may
// sort below the start key.
func TestScanNeverReturnsRowBelowStart(t *testing.T) {
	s := NewStore(Config{MemstoreFlushBytes: 1 << 20})
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("m%04d", i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	const start = "m0000"
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Descending keys: each lands between the current predecessor of
		// start and start itself.
		for i := 9999; i >= 0; i-- {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Put(fmt.Sprintf("l%04d", i), []byte("below")); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		rows, err := s.Scan(start, "", 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 || rows[0].Key < start {
			close(done)
			wg.Wait()
			t.Fatalf("scan %d from %q returned first row %v", i, start, rows)
		}
	}
	close(done)
	wg.Wait()
}
