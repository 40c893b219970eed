package kv

import (
	"sync"
	"testing"
	"time"

	"met/internal/obs"
)

// delaySource wraps a BlockSource and sleeps on every LoadBlock — a
// deterministic stand-in for a slow disk read.
type delaySource struct {
	BlockSource
	delay time.Duration
}

func (d *delaySource) LoadBlock(i int) (*Block, error) {
	time.Sleep(d.delay)
	return d.BlockSource.LoadBlock(i)
}

func slowFile(t *testing.T, delay time.Duration) *StoreFile {
	t.Helper()
	entries := []Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Value: []byte("2"), Timestamp: 1},
	}
	blocks, meta := PackBlocks(entries, 1<<20)
	src := &delaySource{BlockSource: &memorySource{blocks: blocks}, delay: delay}
	return NewStoreFile(1, meta, src)
}

// TestTraceCapturesSlowSSTableRead injects a slow block load and checks
// the trace attributes the time to the sstable-read stage, and that the
// traced op lands in a slow log with that span intact.
func TestTraceCapturesSlowSSTableRead(t *testing.T) {
	const delay = 5 * time.Millisecond
	f := slowFile(t, delay)

	tr := obs.StartTrace("get", "t", "a")
	if _, found, err := f.get("a", nil, nil, tr); err != nil || !found {
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	var read time.Duration
	for _, sp := range tr.Spans() {
		if sp.Stage == "sstable-read" {
			read = sp.Dur
		}
	}
	if read < delay {
		t.Fatalf("sstable-read span %v, want >= injected delay %v", read, delay)
	}

	log := obs.NewSlowLog(4)
	log.Observe(tr, time.Since(tr.Start()))
	ops := log.Snapshot()
	if len(ops) != 1 {
		t.Fatalf("slow log holds %d ops, want 1", len(ops))
	}
	var logged time.Duration
	for _, sp := range ops[0].Spans {
		if sp.Stage == "sstable-read" {
			logged = sp.Dur
		}
	}
	if logged != read {
		t.Fatalf("slow log span %v != trace span %v", logged, read)
	}
	if ops[0].Total < delay {
		t.Fatalf("slow op total %v < injected delay %v", ops[0].Total, delay)
	}
}

// TestTraceCacheHitSpan checks that a cached block records block-cache,
// not sstable-read.
func TestTraceCacheHitSpan(t *testing.T) {
	f := slowFile(t, 0)
	cache := NewBlockCache(1 << 20)

	tr := obs.StartTrace("get", "t", "a")
	if _, _, err := f.get("a", cache, nil, tr); err != nil {
		t.Fatal(err)
	}
	tr2 := obs.StartTrace("get", "t", "a")
	if _, _, err := f.get("a", cache, nil, tr2); err != nil {
		t.Fatal(err)
	}
	want := func(tr *obs.Trace, stage string) {
		t.Helper()
		for _, sp := range tr.Spans() {
			if sp.Stage == stage {
				return
			}
		}
		t.Fatalf("missing %q span in %+v", stage, tr.Spans())
	}
	want(tr, "sstable-read")
	want(tr2, "block-cache")
}

// TestTracedOpsConcurrent hammers a slow file from many goroutines with
// traces and a shared slow log; run under -race this checks the whole
// trace/slow-log path for data races.
func TestTracedOpsConcurrent(t *testing.T) {
	f := slowFile(t, 100*time.Microsecond)
	log := obs.NewSlowLog(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tr := obs.StartTrace("get", "t", "a")
				if _, _, err := f.get("a", nil, nil, tr); err != nil {
					t.Error(err)
					return
				}
				log.Observe(tr, time.Since(tr.Start()))
			}
		}()
	}
	wg.Wait()
	if log.Total() != 160 {
		t.Fatalf("slow log total = %d, want 160", log.Total())
	}
	if got := len(log.Snapshot()); got != 16 {
		t.Fatalf("ring retained %d, want 16", got)
	}
}
