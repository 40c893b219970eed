package durable

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"met/internal/kv"
)

// TestScanValuesOutliveRecycledBlocks holds a Scan's values while cold
// Gets evict blocks and read into their recycled buffers. Scan's values
// alias the blocks its iterators loaded, so those blocks must never be
// recycled: every held value must read as it did when it was scanned.
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
