package kv

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"met/internal/sim"
)

func TestMemstoreAddGet(t *testing.T) {
	m := NewMemstore(1)
	m.Add(Entry{Key: "b", Value: []byte("1"), Timestamp: 1})
	m.Add(Entry{Key: "a", Value: []byte("2"), Timestamp: 2})
	e, ok := m.Get("a")
	if !ok || string(e.Value) != "2" {
		t.Fatalf("Get(a) = %v, %v", e, ok)
	}
	if _, ok := m.Get("zz"); ok {
		t.Fatal("found missing key")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestMemstoreNewestVersionFirst(t *testing.T) {
	m := NewMemstore(1)
	m.Add(Entry{Key: "k", Value: []byte("old"), Timestamp: 1})
	m.Add(Entry{Key: "k", Value: []byte("new"), Timestamp: 2})
	e, ok := m.Get("k")
	if !ok || string(e.Value) != "new" {
		t.Fatalf("Get = %v", e)
	}
	if m.Len() != 2 {
		t.Fatalf("versions = %d, want 2", m.Len())
	}
}

func TestMemstoreSameCoordinatesReplace(t *testing.T) {
	m := NewMemstore(1)
	m.Add(Entry{Key: "k", Value: []byte("a"), Timestamp: 5})
	m.Add(Entry{Key: "k", Value: []byte("bb"), Timestamp: 5})
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
	e, _ := m.Get("k")
	if string(e.Value) != "bb" {
		t.Fatalf("value = %q", e.Value)
	}
}

func TestMemstoreIteratorSorted(t *testing.T) {
	m := NewMemstore(7)
	rng := sim.NewRNG(9)
	for i := 0; i < 500; i++ {
		m.Add(Entry{Key: fmt.Sprintf("k%04d", rng.Intn(200)), Timestamp: uint64(i + 1)})
	}
	it := m.Iterator()
	var prev Entry
	first := true
	count := 0
	for it.Next() {
		e := it.Entry()
		if !first && less(e, prev) {
			t.Fatalf("out of order: %v after %v", e, prev)
		}
		prev, first = e, false
		count++
	}
	if count != m.Len() {
		t.Fatalf("iterated %d, len %d", count, m.Len())
	}
}

func TestMemstoreIteratorFrom(t *testing.T) {
	m := NewMemstore(1)
	for i := 0; i < 10; i++ {
		m.Add(Entry{Key: fmt.Sprintf("k%d", i), Timestamp: uint64(i + 1)})
	}
	it := m.IteratorFrom("k5")
	if !it.Next() || it.Entry().Key != "k5" {
		t.Fatalf("first = %v", it.Entry())
	}
	it = m.IteratorFrom("zzz")
	if it.Next() {
		t.Fatal("iterator past end returned entries")
	}
}

// TestMemstoreIteratorFromFixedAtCreation: the iterator's first row is
// chosen when it is created, so an Add that lands between start's
// predecessor and start before the first Next is not returned as a row
// below start.
func TestMemstoreIteratorFromFixedAtCreation(t *testing.T) {
	m := NewMemstore(1)
	for _, k := range []string{"k1", "k3", "k7"} {
		m.Add(Entry{Key: k, Timestamp: 1})
	}
	it := m.IteratorFrom("k5")
	m.Add(Entry{Key: "k4", Timestamp: 2}) // after predecessor k3, below start
	if !it.Next() || it.Entry().Key < "k5" {
		t.Fatalf("first row %q is below start k5", it.Entry().Key)
	}
	if it.Entry().Key != "k7" {
		t.Fatalf("first row = %q, want k7", it.Entry().Key)
	}
}

func TestMemstoreBytesAccounting(t *testing.T) {
	m := NewMemstore(1)
	if m.Bytes() != 0 {
		t.Fatal("empty memstore has bytes")
	}
	e := Entry{Key: "key", Value: []byte("value"), Timestamp: 1}
	m.Add(e)
	if m.Bytes() != e.Size() {
		t.Fatalf("bytes = %d, want %d", m.Bytes(), e.Size())
	}
	m.Add(Entry{Key: "key", Value: []byte("v2"), Timestamp: 1}) // replace
	want := Entry{Key: "key", Value: []byte("v2")}.Size()
	if m.Bytes() != want {
		t.Fatalf("bytes after replace = %d, want %d", m.Bytes(), want)
	}
}

func TestMemstoreMaxTimestamp(t *testing.T) {
	m := NewMemstore(1)
	m.Add(Entry{Key: "a", Timestamp: 5})
	m.Add(Entry{Key: "b", Timestamp: 3})
	if m.MaxTimestamp() != 5 {
		t.Fatalf("max ts = %d", m.MaxTimestamp())
	}
}

// Property: memstore iteration equals sorting the inserted entries.
func TestMemstorePropertySorted(t *testing.T) {
	err := quick.Check(func(seed uint16, n uint8) bool {
		rng := sim.NewRNG(uint64(seed))
		m := NewMemstore(uint64(seed) + 1)
		var entries []Entry
		for i := 0; i < int(n)+1; i++ {
			e := Entry{Key: fmt.Sprintf("k%03d", rng.Intn(64)), Timestamp: uint64(i + 1)}
			m.Add(e)
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool { return less(entries[i], entries[j]) })
		it := m.Iterator()
		for _, want := range entries {
			if !it.Next() {
				return false
			}
			got := it.Entry()
			if got.Key != want.Key || got.Timestamp != want.Timestamp {
				return false
			}
		}
		return !it.Next()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildStoreFileBlocks(t *testing.T) {
	var entries []Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%03d", i), Value: make([]byte, 48), Timestamp: uint64(i + 1)})
	}
	f := BuildStoreFile(1, entries, 256)
	if f.Entries() != 100 {
		t.Fatalf("entries = %d", f.Entries())
	}
	if f.NumBlocks() < 10 {
		t.Fatalf("blocks = %d, expected many with 256B blocks", f.NumBlocks())
	}
	minKey, maxKey := f.KeyRange()
	if minKey != "k000" || maxKey != "k099" {
		t.Fatalf("range = [%s, %s]", minKey, maxKey)
	}
	// Every key is findable.
	for i := 0; i < 100; i++ {
		if _, _, ok, _ := f.get(fmt.Sprintf("k%03d", i), nil, nil, nil); !ok {
			t.Fatalf("k%03d missing", i)
		}
	}
	if _, _, ok, _ := f.get("k100", nil, nil, nil); ok {
		t.Fatal("found key past range")
	}
	if _, _, ok, _ := f.get("a", nil, nil, nil); ok {
		t.Fatal("found key before range")
	}
}

func TestBuildStoreFileUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildStoreFile(1, []Entry{{Key: "b", Timestamp: 1}, {Key: "a", Timestamp: 2}}, 64)
}

func TestStoreFileEmpty(t *testing.T) {
	f := BuildStoreFile(1, nil, 64)
	if f.Entries() != 0 || f.NumBlocks() != 0 {
		t.Fatal("empty file not empty")
	}
	if _, _, ok, _ := f.get("k", nil, nil, nil); ok {
		t.Fatal("empty file found key")
	}
	it := f.iteratorFrom("", nil, nil, nil)
	if it.Next() {
		t.Fatal("empty iterator returned entries")
	}
}

func TestStoreFileIteratorFrom(t *testing.T) {
	var entries []Entry
	for i := 0; i < 50; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%02d", i*2), Timestamp: uint64(i + 1)})
	}
	f := BuildStoreFile(1, entries, 200)
	// Exact key.
	it := f.iteratorFrom("k10", nil, nil, nil)
	if !it.Next() || it.Entry().Key != "k10" {
		t.Fatalf("from k10 -> %v", it.Entry())
	}
	// Between keys: k11 doesn't exist, expect k12.
	it = f.iteratorFrom("k11", nil, nil, nil)
	if !it.Next() || it.Entry().Key != "k12" {
		t.Fatalf("from k11 -> %v", it.Entry())
	}
	// Before range.
	it = f.iteratorFrom("a", nil, nil, nil)
	if !it.Next() || it.Entry().Key != "k00" {
		t.Fatalf("from a -> %v", it.Entry())
	}
	// Past range.
	it = f.iteratorFrom("z", nil, nil, nil)
	if it.Next() {
		t.Fatal("from z returned entries")
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := NewBlockCache(300)
	mk := func(n int) *Block { return &Block{bytes: n} }
	c.put(blockKey{1, 0}, mk(100))
	c.put(blockKey{1, 1}, mk(100))
	c.put(blockKey{1, 2}, mk(100))
	if c.Used() != 300 || c.Len() != 3 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
	// Touch block 0 so block 1 is LRU.
	c.get(blockKey{1, 0})
	c.put(blockKey{1, 3}, mk(100))
	if _, ok := c.get(blockKey{1, 1}); ok {
		t.Fatal("LRU block not evicted")
	}
	if _, ok := c.get(blockKey{1, 0}); !ok {
		t.Fatal("recently used block evicted")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 after one eviction", c.Len())
	}
}

func TestBlockCacheOversizedBlock(t *testing.T) {
	c := NewBlockCache(100)
	c.put(blockKey{1, 0}, &Block{bytes: 200})
	if c.Len() != 0 {
		t.Fatal("oversized block cached")
	}
}

func TestBlockCacheInvalidateFile(t *testing.T) {
	c := NewBlockCache(1000)
	c.put(blockKey{1, 0}, &Block{bytes: 100})
	c.put(blockKey{1, 1}, &Block{bytes: 100})
	c.put(blockKey{2, 0}, &Block{bytes: 100})
	c.invalidateFile(1)
	if c.Len() != 1 || c.Used() != 100 {
		t.Fatalf("len=%d used=%d after invalidate", c.Len(), c.Used())
	}
	if _, ok := c.get(blockKey{2, 0}); !ok {
		t.Fatal("unrelated file evicted")
	}
}

func TestMergeIteratorInterleaves(t *testing.T) {
	a := BuildStoreFile(1, []Entry{{Key: "a", Timestamp: 1}, {Key: "c", Timestamp: 2}}, 64)
	b := BuildStoreFile(2, []Entry{{Key: "b", Timestamp: 3}, {Key: "d", Timestamp: 4}}, 64)
	it := newMergeIterator([]Iterator{a.iteratorFrom("", nil, nil, nil), b.iteratorFrom("", nil, nil, nil)})
	var keys []string
	for it.Next() {
		keys = append(keys, it.Entry().Key)
	}
	want := []string{"a", "b", "c", "d"}
	if len(keys) != 4 {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestMergeIteratorVersionOrder(t *testing.T) {
	newer := BuildStoreFile(1, []Entry{{Key: "k", Value: []byte("new"), Timestamp: 9}}, 64)
	older := BuildStoreFile(2, []Entry{{Key: "k", Value: []byte("old"), Timestamp: 3}}, 64)
	it := newMergeIterator([]Iterator{newer.iteratorFrom("", nil, nil, nil), older.iteratorFrom("", nil, nil, nil)})
	if !it.Next() || string(it.Entry().Value) != "new" {
		t.Fatalf("first version = %v", it.Entry())
	}
	if !it.Next() || string(it.Entry().Value) != "old" {
		t.Fatalf("second version = %v", it.Entry())
	}
}

func TestDedupDropsTombstones(t *testing.T) {
	f := BuildStoreFile(1, []Entry{
		{Key: "a", Timestamp: 2, Tombstone: true},
		{Key: "a", Timestamp: 1, Value: []byte("old")},
		{Key: "b", Timestamp: 3, Value: []byte("live")},
	}, 64)
	it := newDedupIterator(f.iteratorFrom("", nil, nil, nil), true)
	if !it.Next() || it.Entry().Key != "b" {
		t.Fatalf("entry = %v", it.Entry())
	}
	if it.Next() {
		t.Fatal("extra entries")
	}
	// Keeping tombstones (minor merge) retains the marker.
	it = newDedupIterator(f.iteratorFrom("", nil, nil, nil), false)
	if !it.Next() || it.Entry().Key != "a" || !it.Entry().Tombstone {
		t.Fatalf("entry = %v", it.Entry())
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{Key: "k", Value: []byte("abc"), Timestamp: 7}
	if e.String() == "" {
		t.Fatal("empty String")
	}
	d := Entry{Key: "k", Timestamp: 8, Tombstone: true}
	if d.String() == e.String() {
		t.Fatal("tombstone string identical")
	}
}

func TestStatsCacheHitRatio(t *testing.T) {
	s := Stats{CacheHits: 3, CacheMisses: 1}
	if s.CacheHitRatio() != 0.75 {
		t.Fatalf("ratio = %v", s.CacheHitRatio())
	}
	if (Stats{}).CacheHitRatio() != 0 {
		t.Fatal("empty ratio != 0")
	}
}
