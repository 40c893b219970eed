package kv

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"
)

// recyclingSource serves one block the way the durable reader does:
// every load parses a fresh copy of the payload whose recycle hook
// scribbles over it, as the next load reading into the same buffer
// would. With stall set, LoadBlock signals loading and then waits.
type recyclingSource struct {
	payload  []byte
	firstKey string
	stall    chan struct{}
	loading  chan struct{}
	recycled atomic.Int32
}

func newRecyclingSource(entries ...Entry) *recyclingSource {
	return &recyclingSource{payload: encodeBlock(entries).Payload(), firstKey: entries[0].Key}
}

func (r *recyclingSource) NumBlocks() int             { return 1 }
func (r *recyclingSource) FirstKey(int) string        { return r.firstKey }
func (r *recyclingSource) MayContain(key string) bool { return true }

func (r *recyclingSource) LoadBlock(int) (*Block, error) {
	if r.stall != nil {
		r.loading <- struct{}{}
		<-r.stall
	}
	b := new(Block)
	err := b.Parse(bytes.Clone(r.payload), func(b *Block) {
		r.recycled.Add(1)
		for i := range b.data {
			b.data[i] = 'X'
		}
	})
	return b, err
}

// TestGetCopiesBeforeUnpin evicts the block holding a Get's best entry
// while the Get still consults an older file: the Get's pin must keep
// the block from being recycled, and the Get must copy the value out
// before it drops that pin — the drop recycles the block at once.
func TestGetCopiesBeforeUnpin(t *testing.T) {
	newer := newRecyclingSource(Entry{Key: "k", Value: []byte("value-of-k"), Timestamp: 1})
	older := newRecyclingSource(Entry{Key: "a", Value: []byte("a"), Timestamp: 4}, Entry{Key: "z", Value: []byte("z"), Timestamp: 5})
	older.stall, older.loading = make(chan struct{}), make(chan struct{})
	fNewer := NewStoreFile(nextFileID(), FileMeta{Entries: 1, MinKey: "k", MaxKey: "k", MaxTS: 1}, newer)
	// The older file's newer clock makes the Get consult it after
	// finding k in the newer one.
	fOlder := NewStoreFile(nextFileID(), FileMeta{Entries: 2, MinKey: "a", MaxKey: "z", MaxTS: 5}, older)
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
	s.cache.invalidateFile(fNewer.ID()) // drops the cache's pin
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
