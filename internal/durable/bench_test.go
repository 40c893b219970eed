package durable

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync/atomic"
	"testing"

	"met/internal/kv"
)

func benchStore(b *testing.B, durable bool) *kv.Store {
	b.Helper()
	cfg := kv.Config{MemstoreFlushBytes: 8 << 20, BlockBytes: 8 << 10}
	if durable {
		cfg.OpenBackend = Opener(b.TempDir(), Options{})
	}
	s, err := kv.OpenStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func BenchmarkDurablePut(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurablePutParallel exercises group commit: concurrent writers
// share fsyncs, so per-op cost drops well below the serial case on
// hardware with real sync latency.
func BenchmarkDurablePutParallel(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	if h, ok := s.WAL().(*RegionLog); ok && h.Owner().SyncRounds() > 0 {
		b.ReportMetric(float64(b.N)/float64(h.Owner().SyncRounds()), "writes/fsync")
	}
}

func BenchmarkMemoryPut(b *testing.B) {
	s := benchStore(b, false)
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDurableGet(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key-%09d", i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableNegativeGet measures the bloom filter's fast path.
func BenchmarkDurableNegativeGet(b *testing.B) {
	s := benchStore(b, true)
	val := make([]byte, 128)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%09d", i*2), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key-%09d", (i%n)*2+1)); err != kv.ErrNotFound {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	h := w.Region("")
	e := kv.Entry{Key: "benchmark-key", Value: make([]byte, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Timestamp = uint64(i + 1)
		if err := h.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEntries returns n entries at the benchmark's shape: 1 000 B
// values under YCSB-style keys.
func benchEntries(n int) []kv.Entry {
	entries := make([]kv.Entry, n)
	for i := range entries {
		entries[i] = kv.Entry{Key: fmt.Sprintf("user%015d", i), Value: make([]byte, 1000), Timestamp: uint64(i + 1)}
	}
	return entries
}

// BenchmarkLoadBlock times one block-cache miss at the benchmark's
// shape: pread, CRC check and kv.Block.Parse of a 64 KiB block of
// 1 000 B values, with the page cache warm. Each block is released
// after its load, as an evicted block is, so the loop times the
// recycled path: the next load reads into the same buffer.
func BenchmarkLoadBlock(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sst-1.sst")
	if _, err := writeSSTable(path, benchEntries(1024), 64<<10, Options{}.withDefaults(), 0); err != nil {
		b.Fatal(err)
	}
	r, err := openSSTable(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := r.LoadBlock(i % (r.NumBlocks() - 1))
		if err != nil {
			b.Fatal(err)
		}
		blk.Release()
	}
}

// BenchmarkColdGet times a Get at steady state on a durable store whose
// block cache holds a quarter of its data (the read_cold shape): 64 KiB
// blocks of 1 000 B values, uniform keys, so most Gets miss, load a
// block and evict one. The allocation per op is the value's copy plus
// whatever a miss allocates.
func BenchmarkColdGet(b *testing.B) {
	const n = 4096 // 4 MB of entries, 64 blocks
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 64 << 20,
		BlockBytes:         64 << 10,
		BlockCacheBytes:    1 << 20,
		OpenBackend:        Opener(b.TempDir(), Options{NoSync: true}),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	entries := benchEntries(n)
	for _, e := range entries {
		if err := s.Put(e.Key, e.Value); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	get := func() {
		if _, err := s.Get(entries[rng.IntN(n)].Key); err != nil {
			b.Fatal(err)
		}
	}
	for range 4 * n { // fill the cache and the free list
		get()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// BenchmarkColdScan times a 100-row Scan from a uniform start on the
// BenchmarkColdGet store (64 KiB blocks of 1 000 B values, a block cache
// holding a quarter of the data), so most scans load a block or two and
// evict as many. visit encodes each row into one reused buffer through
// ScanFunc, as the rpc server does; copy is Store.Scan, which returns
// the caller's copies. A miss reads into a recycled block, so tens of
// KB/op on visit means a scan stopped releasing its pins.
func BenchmarkColdScan(b *testing.B) {
	const n, rows = 4096, 100
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 64 << 20,
		BlockBytes:         64 << 10,
		BlockCacheBytes:    1 << 20,
		OpenBackend:        Opener(b.TempDir(), Options{NoSync: true}),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	entries := benchEntries(n)
	for _, e := range entries {
		if err := s.Put(e.Key, e.Value); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	visit := func() {
		buf = buf[:0]
		err := s.ScanFunc(entries[rng.IntN(n)].Key, "", rows, nil, func(e kv.Entry) bool {
			buf = append(append(buf, e.Key...), e.Value...)
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	scan := func() {
		if _, err := s.Scan(entries[rng.IntN(n)].Key, "", rows); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		op   func()
	}{{"visit", visit}, {"copy", scan}} {
		b.Run(bc.name, func(b *testing.B) {
			for range n / 8 { // fill the cache and the free list
				bc.op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
		})
	}
}
