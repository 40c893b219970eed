package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"met/internal/sim"
)

func newTestStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return NewStore(cfg)
}

func TestPutGet(t *testing.T) {
	s := newTestStore(t, Config{})
	if err := s.Put("user1", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("user1")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "alice" {
		t.Fatalf("got %q", v)
	}
	if _, err := s.Get("nope"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	s := newTestStore(t, Config{})
	for i := 0; i < 10; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v9" {
		t.Fatalf("got %q, want v9", v)
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("k", []byte("v"))
	s.Delete("k")
	if _, err := s.Get("k"); err != ErrNotFound {
		t.Fatalf("deleted key err = %v", err)
	}
	// Re-put after delete resurrects.
	s.Put("k", []byte("v2"))
	v, err := s.Get("k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("got %q, %v", v, err)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("a", []byte("1"))
	s.Flush()
	s.Put("b", []byte("2"))
	s.Flush()
	s.Put("c", []byte("3"))
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v, err := s.Get(k)
		if err != nil || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	if s.NumFiles() != 2 {
		t.Fatalf("files = %d, want 2", s.NumFiles())
	}
}

func TestNewestVersionWinsAcrossFiles(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("k", []byte("old"))
	s.Flush()
	s.Put("k", []byte("mid"))
	s.Flush()
	s.Put("k", []byte("new"))
	v, _ := s.Get("k")
	if string(v) != "new" {
		t.Fatalf("got %q", v)
	}
	s.Flush()
	v, _ = s.Get("k")
	if string(v) != "new" {
		t.Fatalf("after flush got %q", v)
	}
}

func TestDeleteShadowsAcrossFlush(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("k", []byte("v"))
	s.Flush()
	s.Delete("k")
	s.Flush()
	if _, err := s.Get("k"); err != ErrNotFound {
		t.Fatalf("err = %v", err)
	}
	// Major compaction drops the tombstone but must not resurrect.
	s.Compact(true)
	if _, err := s.Get("k"); err != ErrNotFound {
		t.Fatalf("after compact err = %v", err)
	}
}

func TestAutoFlushOnThreshold(t *testing.T) {
	s := newTestStore(t, Config{MemstoreFlushBytes: 1024})
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("key%03d", i), bytes.Repeat([]byte("x"), 64))
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("no automatic flush happened")
	}
	if st.MemstoreCurrent >= 1024 {
		t.Fatalf("memstore still %d bytes", st.MemstoreCurrent)
	}
	// All keys remain readable.
	for i := 0; i < 100; i++ {
		if _, err := s.Get(fmt.Sprintf("key%03d", i)); err != nil {
			t.Fatalf("key%03d lost: %v", i, err)
		}
	}
}

func TestMinorCompactionCapsFiles(t *testing.T) {
	s := newTestStore(t, Config{MaxStoreFiles: 3})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
		s.Flush()
	}
	if got := s.NumFiles(); got > 4 {
		t.Fatalf("files = %d, want <= 4", got)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
}

func TestScanRange(t *testing.T) {
	s := newTestStore(t, Config{})
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("%d", i)))
	}
	s.Flush()
	for i := 20; i < 30; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("%d", i)))
	}
	got, err := s.Scan("k05", "k25", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("scan returned %d entries, want 20", len(got))
	}
	if got[0].Key != "k05" || got[19].Key != "k24" {
		t.Fatalf("range [%s..%s]", got[0].Key, got[19].Key)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key <= got[i-1].Key {
			t.Fatal("scan not sorted")
		}
	}
}

func TestScanLimit(t *testing.T) {
	s := newTestStore(t, Config{})
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte("v"))
	}
	got, err := s.Scan("", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("len = %d, want 7", len(got))
	}
}

func TestScanSkipsTombstonesAndOldVersions(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Put("b", []byte("2x"))
	s.Put("c", []byte("3"))
	s.Flush()
	s.Delete("a")
	got, err := s.Scan("", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scan = %v", got)
	}
	if got[0].Key != "b" || string(got[0].Value) != "2x" || got[1].Key != "c" {
		t.Fatalf("scan = %v", got)
	}
}

func TestScanEmptyStore(t *testing.T) {
	s := newTestStore(t, Config{})
	got, err := s.Scan("", "", -1)
	if err != nil || len(got) != 0 {
		t.Fatalf("scan = %v, %v", got, err)
	}
}

func TestMajorCompactionShrinks(t *testing.T) {
	s := newTestStore(t, Config{MaxStoreFiles: 100})
	for i := 0; i < 100; i++ {
		s.Put("hot", bytes.Repeat([]byte("v"), 100))
		s.Put(fmt.Sprintf("cold%d", i), []byte("x"))
		if i%10 == 9 {
			s.Flush()
		}
	}
	s.Flush()
	before := s.DataBytes()
	s.Compact(true)
	after := s.DataBytes()
	if after >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, after)
	}
	if s.NumFiles() != 1 {
		t.Fatalf("files = %d", s.NumFiles())
	}
	v, err := s.Get("hot")
	if err != nil || len(v) != 100 {
		t.Fatalf("hot lost: %v", err)
	}
}

func TestCacheServesRepeatedReads(t *testing.T) {
	s := newTestStore(t, Config{BlockCacheBytes: 1 << 20, BlockBytes: 256})
	for i := 0; i < 200; i++ {
		s.Put(fmt.Sprintf("k%03d", i), bytes.Repeat([]byte("v"), 32))
	}
	s.Flush()
	for i := 0; i < 100; i++ {
		s.Get("k050")
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits")
	}
	if st.CacheHitRatio() < 0.9 {
		t.Fatalf("hit ratio %.2f too low", st.CacheHitRatio())
	}
}

func TestTinyCacheThrashes(t *testing.T) {
	// A cache smaller than the working set must evict; reads still work.
	s := newTestStore(t, Config{BlockCacheBytes: 600, BlockBytes: 512})
	for i := 0; i < 500; i++ {
		s.Put(fmt.Sprintf("k%04d", i), bytes.Repeat([]byte("v"), 64))
	}
	s.Flush()
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i += 50 {
			if _, err := s.Get(fmt.Sprintf("k%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.CacheMisses == 0 {
		t.Fatal("expected misses with tiny cache")
	}
}

func TestClosedStore(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("k", []byte("v"))
	s.Close()
	if err := s.Put("k2", []byte("v")); err != ErrClosed {
		t.Fatalf("Put err = %v", err)
	}
	if _, err := s.Get("k"); err != ErrClosed {
		t.Fatalf("Get err = %v", err)
	}
	if _, err := s.Scan("", "", -1); err != ErrClosed {
		t.Fatalf("Scan err = %v", err)
	}
	if err := s.Delete("k"); err != ErrClosed {
		t.Fatalf("Delete err = %v", err)
	}
}

func TestGetCopiesValue(t *testing.T) {
	s := newTestStore(t, Config{})
	s.Put("k", []byte("abc"))
	v, _ := s.Get("k")
	v[0] = 'X'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get returned aliased memory")
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := newTestStore(t, Config{})
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Put retained caller's buffer")
	}
}

// TestStoreMatchesModel drives the store with a random operation sequence
// and compares every result against a plain map model.
func TestStoreMatchesModel(t *testing.T) {
	rng := sim.NewRNG(2024)
	s := newTestStore(t, Config{MemstoreFlushBytes: 2048, BlockBytes: 256, MaxStoreFiles: 3})
	model := make(map[string]string)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	for step := 0; step < 5000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put
			v := fmt.Sprintf("v%d", step)
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 4: // delete
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 5: // flush or compact occasionally
			if rng.Intn(4) == 0 {
				s.Compact(rng.Intn(2) == 0)
			} else {
				s.Flush()
			}
		default: // get
			v, err := s.Get(k)
			want, ok := model[k]
			if ok {
				if err != nil || string(v) != want {
					t.Fatalf("step %d: Get(%q) = %q, %v; want %q", step, k, v, err, want)
				}
			} else if err != ErrNotFound {
				t.Fatalf("step %d: Get(%q) err = %v, want ErrNotFound", step, k, err)
			}
		}
	}
	// Final full-scan comparison.
	got, err := s.Scan("", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	if len(got) != len(wantKeys) {
		t.Fatalf("scan has %d keys, model %d", len(got), len(wantKeys))
	}
	for i, e := range got {
		if e.Key != wantKeys[i] || string(e.Value) != model[e.Key] {
			t.Fatalf("scan[%d] = %s=%q, want %s=%q", i, e.Key, e.Value, wantKeys[i], model[wantKeys[i]])
		}
	}
}

// TestScanEqualsSortedModel is a property test: for random key sets, a
// full scan equals the sorted live key set.
func TestScanEqualsSortedModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed uint16, n uint8) bool {
		rng := sim.NewRNG(uint64(seed))
		s := NewStore(Config{Seed: uint64(seed) + 1, MemstoreFlushBytes: 1024, BlockBytes: 128})
		model := map[string]bool{}
		for i := 0; i < int(n); i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(100))
			if rng.Intn(4) == 0 {
				s.Delete(k)
				delete(model, k)
			} else {
				s.Put(k, []byte("v"))
				model[k] = true
			}
		}
		got, err := s.Scan("", "", -1)
		if err != nil {
			return false
		}
		if len(got) != len(model) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key >= got[i].Key {
				return false
			}
		}
		for _, e := range got {
			if !model[e.Key] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStorePut(b *testing.B) {
	s := NewStore(Config{Seed: 1, MemstoreFlushBytes: 64 << 20})
	val := bytes.Repeat([]byte("v"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("key%08d", i), val)
	}
}

func BenchmarkStoreGetCached(b *testing.B) {
	s := NewStore(Config{Seed: 1})
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 10000; i++ {
		s.Put(fmt.Sprintf("key%08d", i), val)
	}
	s.Flush()
	rng := sim.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("key%08d", rng.Intn(10000)))
	}
}

func BenchmarkStoreScan100(b *testing.B) {
	s := NewStore(Config{Seed: 1})
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 10000; i++ {
		s.Put(fmt.Sprintf("key%08d", i), val)
	}
	s.Flush()
	rng := sim.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := fmt.Sprintf("key%08d", rng.Intn(9900))
		s.Scan(start, "", 100)
	}
}

// rewriteAcrossBlock writes one key often enough inside a single
// memstore that its versions overflow a block once flushed (70 x
// 1 000 B at 64 KB blocks, behind a smaller key so a size-only boundary
// would fall between two of its versions), and returns the last value.
func rewriteAcrossBlock(t testing.TB, s *Store) []byte {
	t.Helper()
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	var last []byte
	for v := 0; v < 70; v++ {
		last = bytes.Repeat([]byte{byte('0' + v%10)}, 1000)
		copy(last, fmt.Sprintf("version-%02d#", v))
		if err := s.Put("k", last); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("z", []byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestGetNewestVersionAcrossBlockBoundary: the sparse index sends a
// lookup of a block's first key to that block, so a boundary between two
// versions of one key would hide the newer ones in the previous block's
// tail. PackBlocks never cuts there; Get and Scan return the newest
// version.
func TestGetNewestVersionAcrossBlockBoundary(t *testing.T) {
	s := newTestStore(t, Config{MemstoreFlushBytes: 1 << 20, BlockBytes: 64 << 10})
	want := rewriteAcrossBlock(t, s)
	if got, err := s.Get("k"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after flush = %.12q, %v; want %.12q", got, err, want)
	}
	rows, err := s.Scan("k", "", 1)
	if err != nil || len(rows) != 1 || !bytes.Equal(rows[0].Value, want) {
		t.Fatalf("Scan from the rewritten key = %v, %v; want one row %.12q", rows, err, want)
	}
	for _, f := range s.files {
		for i := 1; i < f.NumBlocks(); i++ {
			prev, _ := f.src.LoadBlock(i - 1)
			if last := prev.Entry(prev.Len() - 1).Key; last == f.firstKeys[i] {
				t.Fatalf("block boundary %d falls between two versions of %q", i, last)
			}
		}
	}
}
