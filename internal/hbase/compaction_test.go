package hbase

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"met/internal/compaction"
	"met/internal/hdfs"
	"met/internal/sim"
)

// compactorOf returns s's background pool (nil only after Shutdown).
func compactorOf(s *RegionServer) *compaction.Pool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactor
}

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
			if compactorOf(rs) == nil {
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
	same := compactorOf(rs)
	if err := rs.Restart(cfg); err != nil {
		t.Fatal(err)
	}
	if compactorOf(rs) != same {
		t.Fatal("unchanged knobs must keep the pool")
	}
	cfg.Compaction.Policy = "leveled"
	if err := rs.Restart(cfg); err != nil {
		t.Fatal(err)
	}
	if compactorOf(rs) == same {
		t.Fatal("changed knobs must rebuild the pool")
	}
	if rs.Config().Compaction.Policy != "leveled" {
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

// TestReprofilingRestartKeepsCompactionCounts: a restart with new
// compaction knobs replaces the server's pool, and the fresh pool counts
// on from the old one's totals — ServerStats.Compaction and
// Latency.Compaction never fall — and so does a Shutdown.
func TestReprofilingRestartKeepsCompactionCounts(t *testing.T) {
	dir := t.TempDir()
	cfg := compactionConfig(dir, "tiered")
	m, c := newDurableCluster(t, 0, dir)
	rs, err := m.AddServer("rs0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	for i := 0; i < 800; i++ {
		if err := c.Put("t", fmt.Sprintf("k%05d", i%200), val); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); rs.Stats().CompactionBacklog > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("compactions never settled")
		}
	}
	before := rs.Stats()
	if before.Compaction.Compactions == 0 || before.Latency.Compaction.Count() == 0 {
		t.Fatalf("no background compaction to carry: %+v", before.Compaction)
	}

	next := cfg
	next.Compaction.MaxStoreFiles++
	if err := m.RestartServer("rs0", next); err != nil {
		t.Fatal(err)
	}
	carried := func(step string, st ServerStats) {
		t.Helper()
		if st.Compaction.Compactions < before.Compaction.Compactions ||
			st.Compaction.BytesIn < before.Compaction.BytesIn ||
			st.Compaction.Budget.BackgroundBytes < before.Compaction.Budget.BackgroundBytes ||
			st.Latency.Compaction.Count() < before.Latency.Compaction.Count() {
			t.Fatalf("after %s: compaction %+v (latency count %d) fell from %+v (latency count %d)",
				step, st.Compaction, st.Latency.Compaction.Count(), before.Compaction, before.Latency.Compaction.Count())
		}
	}
	carried("a re-profiling restart", rs.Stats())
	rs.Shutdown()
	carried("shutdown", rs.Stats())
}
