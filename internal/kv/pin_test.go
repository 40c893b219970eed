package kv

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// recyclingSource serves packed blocks the way the durable reader does:
// every load parses a fresh copy of a payload whose recycle hook counts
// the recycle and scribbles over it, as the next load reading into the
// same buffer would. It keeps every block it hands out, so a test can
// audit their pins. With stall set, LoadBlock signals loading and then
// waits; a load of block failAt fails.
type recyclingSource struct {
	blocks   []*Block
	failAt   int
	stall    chan struct{}
	loading  chan struct{}
	loaded   []*Block
	recycled atomic.Int32
}

// newRecyclingFile packs sorted entries into blocks of about blockBytes
// (0: one 64 KiB block) behind a recyclingSource.
func newRecyclingFile(blockBytes int, entries ...Entry) (*StoreFile, *recyclingSource) {
	blocks, meta := PackBlocks(entries, blockBytes)
	src := &recyclingSource{blocks: blocks, failAt: -1}
	return NewStoreFile(nextFileID(), meta, src), src
}

func (r *recyclingSource) NumBlocks() int             { return len(r.blocks) }
func (r *recyclingSource) FirstKey(i int) string      { return r.blocks[i].Entry(0).Key }
func (r *recyclingSource) MayContain(key string) bool { return true }

func (r *recyclingSource) LoadBlock(i int) (*Block, error) {
	if r.stall != nil {
		r.loading <- struct{}{}
		<-r.stall
	}
	if i == r.failAt {
		return nil, fmt.Errorf("load block %d: injected failure", i)
	}
	b := new(Block)
	err := b.Parse(bytes.Clone(r.blocks[i].Payload()), func(b *Block) {
		r.recycled.Add(1)
		for i := range b.data {
			b.data[i] = 'X'
		}
	})
	r.loaded = append(r.loaded, b)
	return b, err
}

// TestGetCopiesBeforeUnpin evicts the block holding a Get's best entry
// while the Get still consults an older file: the Get's pin must keep
// the block from being recycled, and the Get must copy the value out
// before it drops that pin — the drop recycles the block at once.
func TestGetCopiesBeforeUnpin(t *testing.T) {
	fNewer, newer := newRecyclingFile(0, Entry{Key: "k", Value: []byte("value-of-k"), Timestamp: 1})
	// The older file's newer clock makes the Get consult it after
	// finding k in the newer one.
	fOlder, older := newRecyclingFile(0, Entry{Key: "a", Value: []byte("a"), Timestamp: 4}, Entry{Key: "z", Value: []byte("z"), Timestamp: 5})
	older.stall, older.loading = make(chan struct{}), make(chan struct{})
	s := NewStore(Config{})
	s.files = []*StoreFile{fNewer, fOlder}

	type result struct {
		v   []byte
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, err := s.Get("k")
		got <- result{v, err}
	}()
	select {
	case <-older.loading:
	case <-time.After(10 * time.Second):
		t.Fatal("the Get never reached the older file")
	}
	s.cache.invalidateFile(fNewer.cacheID) // drops the cache's pin
	if n := newer.recycled.Load(); n != 0 {
		t.Fatalf("block recycled %d times while a Get held it", n)
	}
	close(older.stall)
	r := <-got
	if r.err != nil || string(r.v) != "value-of-k" {
		t.Fatalf("Get(k) = %q, %v; want %q", r.v, r.err, "value-of-k")
	}
	if n := newer.recycled.Load(); n != 1 {
		t.Fatalf("evicted block recycled %d times after the Get, want 1", n)
	}
	if n := older.recycled.Load(); n != 0 {
		t.Fatalf("the older file's block, still cached, was recycled %d times", n)
	}
}

// TestScanReleasesEveryPin runs ScanFunc to each of its exits over two
// files and a block cache of two blocks: the whole range, a limit, an
// end key, fn returning false, a block load that fails mid-scan, and a
// closed store. After each, the only pins left are the cache's own: a
// cached block has one, every other block the scan loaded has none and
// was recycled exactly once. Every row fn sees must still read as
// written when fn sees it, though evictions drop the cache's pins
// mid-scan.
func TestScanReleasesEveryPin(t *testing.T) {
	const n = 120
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	val := func(i, file int) string { return fmt.Sprintf("v%d-%04d-%040d", file, i, i) }
	cases := []struct {
		name       string
		start, end string
		limit      int
		stopAt     int // fn returns false on this row; -1 never
		failAt     int // block of the older file whose load fails; -1 never
		closed     bool
		wantRows   int
		wantErr    bool
	}{
		{name: "exhausted", limit: -1, stopAt: -1, failAt: -1, wantRows: n},
		{name: "limit", start: key(10), limit: 25, stopAt: -1, failAt: -1, wantRows: 25},
		{name: "end", start: key(30), end: key(70), limit: -1, stopAt: -1, failAt: -1, wantRows: 40},
		{name: "stopped", start: key(5), limit: -1, stopAt: 33, failAt: -1, wantRows: 34},
		{name: "failed-load", limit: -1, stopAt: -1, failAt: 4, wantErr: true},
		{name: "closed", limit: -1, stopAt: -1, failAt: -1, closed: true, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The newer file rewrites the even keys; the older holds all.
			var older, newer []Entry
			for i := 0; i < n; i++ {
				older = append(older, Entry{Key: key(i), Value: []byte(val(i, 0)), Timestamp: uint64(i + 1)})
				if i%2 == 0 {
					newer = append(newer, Entry{Key: key(i), Value: []byte(val(i, 1)), Timestamp: uint64(n + i + 1)})
				}
			}
			fOld, srcOld := newRecyclingFile(512, older...)
			fNew, srcNew := newRecyclingFile(512, newer...)
			srcOld.failAt = tc.failAt
			s := NewStore(Config{BlockCacheBytes: 2 * srcOld.blocks[0].Bytes()})
			s.files = []*StoreFile{fNew, fOld}
			if tc.closed {
				s.Close()
			}
			rows := 0
			err := s.ScanFunc(tc.start, tc.end, tc.limit, nil, func(e Entry) bool {
				i := 0
				fmt.Sscanf(e.Key, "k%d", &i)
				want := val(i, 0)
				if i%2 == 0 {
					want = val(i, 1)
				}
				if string(e.Value) != want {
					t.Errorf("row %d: %s = %q, want %q", rows, e.Key, e.Value, want)
				}
				rows++
				return rows-1 != tc.stopAt
			})
			if (err != nil) != tc.wantErr || (!tc.wantErr && rows != tc.wantRows) {
				t.Fatalf("ScanFunc = %d rows, %v; want %d rows, error %v", rows, err, tc.wantRows, tc.wantErr)
			}
			if !tc.closed && srcOld.loaded == nil {
				t.Fatal("the scan loaded no block of the older file")
			}
			cached := make(map[*Block]bool)
			s.cache.mu.Lock()
			for _, el := range s.cache.items {
				cached[el.Value.(*cacheItem).block] = true
			}
			s.cache.mu.Unlock()
			for _, src := range []*recyclingSource{srcNew, srcOld} {
				var wantRecycled int32
				for j, b := range src.loaded {
					want := int32(1)
					if !cached[b] {
						want = 0
						wantRecycled++
					}
					if got := b.pins.Load(); got != want {
						t.Errorf("load %d holds %d pins after the scan, want %d (cached %v)", j, got, want, cached[b])
					}
				}
				if got := src.recycled.Load(); got != wantRecycled {
					t.Errorf("%d blocks recycled, want %d", got, wantRecycled)
				}
			}
		})
	}
}
