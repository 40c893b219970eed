package hbase

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"met/internal/hdfs"
	"met/internal/sim"
)

func TestCompactionConfigValidate(t *testing.T) {
	good := DefaultServerConfig()
	good.Compaction = CompactionConfig{MaxStoreFiles: 4, StallStoreFiles: 12, Policy: "leveled", Workers: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultServerConfig()
	bad.Compaction.Policy = "mystery"
	if bad.Validate() == nil {
		t.Fatal("unknown policy accepted")
	}
	bad = DefaultServerConfig()
	bad.Compaction = CompactionConfig{MaxStoreFiles: 8, StallStoreFiles: 8}
	if bad.Validate() == nil {
		t.Fatal("stall ceiling <= soft threshold accepted")
	}
}

// compactionConfig is durableConfig plus an aggressive background
// compactor, so test-sized workloads exercise the whole subsystem.
func compactionConfig(dataDir, policy string) ServerConfig {
	cfg := durableConfig(dataDir)
	cfg.HeapBytes = 256 << 10 // ~68 KB flush threshold: plenty of SSTables
	cfg.Compaction = CompactionConfig{MaxStoreFiles: 3, StallStoreFiles: 10, Policy: policy}
	return cfg
}

// TestBackgroundCompactionBoundsFileCount: a durable server under
// sustained writes must keep store-file counts bounded by the pool
// alone — flushes never compact inline anymore — for both policies.
func TestBackgroundCompactionBoundsFileCount(t *testing.T) {
	for _, policy := range []string{"tiered", "leveled"} {
		t.Run(policy, func(t *testing.T) {
			nn := hdfs.NewNamenode(2)
			m := NewMaster(nn)
			rs, err := m.AddServer("rs0", compactionConfig(t.TempDir(), policy))
			if err != nil {
				t.Fatal(err)
			}
			if rs.Compactor() == nil {
				t.Fatal("no background pool")
			}
			if _, err := m.CreateTable("t", nil); err != nil {
				t.Fatal(err)
			}
			c := NewClient(m)
			val := make([]byte, 1024)
			for i := 0; i < 800; i++ {
				if err := c.Put("t", fmt.Sprintf("k%05d", i%200), val); err != nil {
					t.Fatal(err)
				}
			}
			eng := rs.EngineStats()
			if eng.Flushes < 4 {
				t.Fatalf("flushes = %d; volume too small to test compaction", eng.Flushes)
			}
			// Wait for the pool to drain the backlog.
			deadline := time.Now().Add(10 * time.Second)
			tbl, _ := m.Table("t")
			store := tbl.Regions()[0].Store()
			region := tbl.Regions()[0]
			for time.Now().Before(deadline) {
				// The mirror reconciles on the pool worker's goroutine, just
				// after the splice that shrinks the stack.
				if store.NumFiles() <= 3 && store.Stats().CompactionQueueDepth == 0 && len(region.Files()) == store.NumFiles() {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if got := store.NumFiles(); got > 3 {
				t.Fatalf("background compaction never bounded the stack: %d files", got)
			}
			if ps := rs.CompactionStats(); ps.Compactions == 0 {
				t.Fatalf("pool idle: %+v", ps)
			}
			// Data integrity across background merges.
			for i := 0; i < 200; i++ {
				if _, err := c.Get("t", fmt.Sprintf("k%05d", i)); err != nil {
					t.Fatalf("key lost under background compaction: %v", err)
				}
			}
			// The HDFS mirror reconciled: engine files == namenode files.
			if engineFiles, hdfsFiles := region.Store().NumFiles(), len(region.Files()); engineFiles != hdfsFiles {
				t.Fatalf("mirror out of sync: engine %d files, namenode %d", engineFiles, hdfsFiles)
			}
		})
	}
}

// TestMajorCompactRoutesThroughPool: the actuator path must run on the
// pool (its stats move), still block until done, and leave one local
// file per region.
func TestMajorCompactRoutesThroughPool(t *testing.T) {
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	rs, err := m.AddServer("rs0", compactionConfig(t.TempDir(), "tiered"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := NewClient(m)
	val := make([]byte, 2048)
	for i := 0; i < 120; i++ {
		if err := c.Put("t", fmt.Sprintf("k%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := m.Table("t")
	region := tbl.Regions()[0]
	region.Store().Flush()
	before := rs.CompactionStats().Compactions
	if _, err := rs.MajorCompact(region.Name()); err != nil {
		t.Fatal(err)
	}
	if got := region.Store().NumFiles(); got != 1 {
		t.Fatalf("files after MajorCompact = %d, want 1", got)
	}
	if after := rs.CompactionStats().Compactions; after <= before {
		t.Fatal("MajorCompact bypassed the pool")
	}
	if got := len(region.Files()); got != 1 {
		t.Fatalf("namenode files = %d, want the one compacted file", got)
	}
}

// TestRestartSwapsCompactorOnKnobChange: changed compaction knobs take
// effect through the restart path (new pool), unchanged knobs keep the
// pool.
func TestRestartSwapsCompactorOnKnobChange(t *testing.T) {
	dir := t.TempDir()
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	cfg := compactionConfig(dir, "tiered")
	rs, err := m.AddServer("rs0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := rs.Compactor()
	if err := rs.Restart(cfg); err != nil {
		t.Fatal(err)
	}
	if rs.Compactor() != same {
		t.Fatal("unchanged knobs must keep the pool")
	}
	cfg.Compaction.Policy = "leveled"
	if err := rs.Restart(cfg); err != nil {
		t.Fatal(err)
	}
	if rs.Compactor() == same {
		t.Fatal("changed knobs must rebuild the pool")
	}
	if rs.Compactor().Policy().Name() != "leveled" {
		t.Fatal("new policy not applied")
	}
}

// TestBackgroundCompactionChaos hammers a durable cluster with
// concurrent writers, readers and scanners while background compactions
// run continuously and a chaos goroutine flushes, splits, restarts,
// moves and finally closes regions — the -race proof that ripping
// compaction out of the write lock kept PR 1's guarantees.
func TestBackgroundCompactionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress skipped in -short")
	}
	dir := t.TempDir()
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	cfg := compactionConfig(dir, "leveled")
	cfg.Compaction.BudgetBytesPerSec = 64 << 20 // real token-bucket arbitration
	for i := 0; i < 2; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CreateTable("t", []string{"k400"}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(m)
	val := make([]byte, 512)
	key := func(i int) string { return fmt.Sprintf("k%05d", i%800) }
	for i := 0; i < 800; i++ {
		if err := c.Put("t", key(i), val); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 6
	var wg sync.WaitGroup
	var hardErr atomic.Value
	stop := make(chan struct{})
	record := func(err error) {
		if err != nil && !benign(err) {
			hardErr.CompareAndSwap(nil, fmt.Sprintf("%v", err))
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 99)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(rng.Intn(800))
				switch i % 3 {
				case 0:
					record(c.Put("t", k, val))
				case 1:
					_, err := c.Get("t", k)
					record(err)
				case 2:
					_, err := c.Scan("t", k, "", 10)
					record(err)
				}
			}
		}(w)
	}

	// Chaos alongside: flush + major compact + restart + move, racing
	// the pool's automatic minors and the serving goroutines.
	chaosDeadline := time.Now().Add(3 * time.Second)
	rng := sim.NewRNG(7)
	for round := 0; time.Now().Before(chaosDeadline) && hardErr.Load() == nil; round++ {
		servers := m.Servers()
		rs := servers[rng.Intn(len(servers))]
		switch round % 4 {
		case 0:
			for _, r := range rs.Regions() {
				r.Store().Flush()
			}
		case 1:
			for _, r := range rs.Regions() {
				if _, err := rs.MajorCompact(r.Name()); err != nil && !benign(err) {
					// A region moved mid-loop is benign churn.
					if _, hosted := m.HostOf(r.Name()); hosted {
						record(err)
					}
				}
			}
		case 2:
			record(rs.Restart(cfg))
		case 3:
			if regions := rs.Regions(); len(regions) > 0 {
				dst := servers[rng.Intn(len(servers))]
				_ = m.MoveRegion(regions[0].Name(), dst.Name())
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if msg := hardErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Split under load-less conditions, then close everything while the
	// pools may still hold queued work — nothing may wedge or race.
	tbl, _ := m.Table("t")
	if len(tbl.Regions()) > 0 {
		_ = m.SplitRegion(tbl.Regions()[0].Name())
	}
	for i := 0; i < 800; i++ {
		if _, err := c.Get("t", key(i)); err != nil {
			t.Fatalf("key %s lost after chaos: %v", key(i), err)
		}
	}
	for _, rs := range m.Servers() {
		for _, r := range rs.Regions() {
			r.Store().Close()
		}
		rs.Shutdown()
	}
}
