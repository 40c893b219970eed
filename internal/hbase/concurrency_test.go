package hbase

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"met/internal/hdfs"
	"met/internal/kv"
	"met/internal/sim"
)

// benign reports whether err is one of the transient conditions a client
// legitimately sees while the topology churns underneath it: a stopped
// or wrong server, a store mid-reopen, or a key the hotspot generator
// drew that is simply absent.
func benign(err error) bool {
	return err == nil ||
		errors.Is(err, ErrServerStopped) ||
		errors.Is(err, ErrWrongRegionServer) ||
		errors.Is(err, kv.ErrClosed) ||
		errors.Is(err, kv.ErrNotFound)
}

// TestRegionServerConcurrentServing hammers one region server with
// parallel Get/Put/Scan goroutines while a chaos goroutine concurrently
// restarts it, bounces a region through close/open, and runs major
// compactions — the exact interleavings the RWMutex + sorted index +
// atomic counters must survive. Run under -race this is the proof the
// serving path has no data races; the final section proves no write was
// torn or lost visibility.
func TestRegionServerConcurrentServing(t *testing.T) {
	m, _ := newCluster(t, 1)
	rs, _ := m.Server("rs0")
	if _, err := m.CreateTable("t", []string{"k200", "k400", "k600", "k800"}); err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%03d", i%1000) }
	for i := 0; i < 1000; i++ {
		if err := rs.Put("t", key(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	// Each worker keeps issuing operations until a quota of them has
	// actually succeeded (a restart window fails every op benignly, so a
	// fixed attempt count could end with zero successes on one core),
	// with a generous attempt cap as a livelock backstop.
	const workers = 8
	const successQuota = 120
	const maxAttempts = 1_000_000
	var wg sync.WaitGroup
	var hardErr atomic.Value
	record := func(err error) bool {
		if err == nil {
			return true
		}
		if !benign(err) {
			hardErr.CompareAndSwap(nil, fmt.Sprintf("%v", err))
		}
		return false
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 1)
			successes := 0
			for i := 0; successes < successQuota && i < maxAttempts && hardErr.Load() == nil; i++ {
				k := key(rng.Intn(1000))
				switch i % 3 {
				case 0:
					_, err := rs.Get("t", k)
					if record(err) {
						successes++
					}
				case 1:
					if record(rs.Put("t", k, []byte(fmt.Sprintf("w%d-%d", w, i)))) {
						successes++
					}
				case 2:
					_, err := rs.Scan("t", k, "", 5)
					if record(err) {
						successes++
					}
				}
			}
			if successes < successQuota {
				hardErr.CompareAndSwap(nil, fmt.Sprintf("worker %d starved: %d successes", w, successes))
			}
		}(w)
	}

	// Chaos: restarts, region bounce, major compactions — concurrently
	// with the serving goroutines above. The sleep between rounds yields
	// the processor so workers see running windows even on one core.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfgs := []ServerConfig{DefaultServerConfig(), {
			HeapBytes: 3 << 30, BlockCacheFraction: 0.55, MemstoreFraction: 0.10,
			BlockBytes: 32 << 10, Handlers: 10,
		}}
		for i := 0; i < 6; i++ {
			if err := rs.Restart(cfgs[i%2]); err != nil {
				record(err)
			}
			if r := rs.CloseRegion("t,k800"); r != nil {
				rs.OpenRegion(r)
			}
			for _, r := range rs.Regions() {
				if _, err := rs.MajorCompact(r.Name()); err != nil {
					// The region may close mid-compact; that error is
					// topology churn, not corruption.
					continue
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	if msg := hardErr.Load(); msg != nil {
		t.Fatalf("hard error under concurrency: %v", msg)
	}

	// The dust has settled: the server must be running, route every key,
	// and serve every seeded row (last value may be any writer's).
	if !rs.Running() {
		t.Fatal("server not running after chaos")
	}
	for i := 0; i < 1000; i++ {
		v, err := rs.Get("t", key(i))
		if err != nil || len(v) == 0 {
			t.Fatalf("Get(%s) after chaos = %q, %v", key(i), v, err)
		}
	}
	req := rs.Requests()
	if req.Reads == 0 || req.Writes == 0 || req.Scans == 0 {
		t.Fatalf("request counters lost operations: %+v", req)
	}
	if rs.Restarts() != 6 {
		t.Fatalf("restarts = %d, want 6", rs.Restarts())
	}
}

// TestClientConcurrentAcrossServers drives the full client routing path
// (master metadata -> sorted index -> store) from many goroutines while
// regions move between servers, verifying the stale-route retry and the
// shared-lock metadata hold up under -race.
func TestClientConcurrentAcrossServers(t *testing.T) {
	m, c := newCluster(t, 3)
	if _, err := m.CreateTable("t", []string{"k300", "k600"}); err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%03d", i%900) }
	for i := 0; i < 900; i++ {
		if err := c.Put("t", key(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var hardErr atomic.Value
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 99)
			for i := 0; i < 300; i++ {
				k := key(rng.Intn(900))
				var err error
				if i%2 == 0 {
					_, err = c.Get("t", k)
				} else {
					err = c.Put("t", k, []byte("w"))
				}
				if !benign(err) {
					hardErr.CompareAndSwap(nil, fmt.Sprintf("%v", err))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl, _ := m.Table("t")
		servers := m.Servers()
		for i := 0; i < 20; i++ {
			for _, r := range tbl.Regions() {
				dst := servers[i%len(servers)].Name()
				if err := m.MoveRegion(r.Name(), dst); err != nil && !benign(err) {
					hardErr.CompareAndSwap(nil, fmt.Sprintf("move: %v", err))
				}
			}
		}
	}()
	wg.Wait()
	if msg := hardErr.Load(); msg != nil {
		t.Fatalf("hard error under concurrent moves: %v", msg)
	}
	for i := 0; i < 900; i++ {
		if _, err := c.Get("t", key(i)); err != nil {
			t.Fatalf("Get(%s) after moves: %v", key(i), err)
		}
	}
}

// TestRestartNeverLosesAcknowledgedWrites pins down the reopen seal:
// writers record every Put the server acknowledged while restarts
// continuously reopen the stores underneath them; each acknowledged key
// must be readable afterwards. Before the store-seal fix, a write could
// slip into the old store after reopen's copy scan and vanish while
// still returning nil to the client. Writers keep putting until the
// restarts are over and then make a fixed number of further puts, so
// every writer's last puts land on a serving server however the
// scheduler interleaves the two.
func TestRestartNeverLosesAcknowledgedWrites(t *testing.T) {
	m, _ := newCluster(t, 1)
	rs, _ := m.Server("rs0")
	if _, err := m.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}

	const writers, after = 4, 100
	acked := make([][]string, writers)
	restarted := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			left := after
			for i := 0; left > 0; i++ {
				select {
				case <-restarted:
					left--
				default:
				}
				k := fmt.Sprintf("w%d-%04d", w, i)
				if err := rs.Put("t", k, []byte(k)); err == nil {
					acked[w] = append(acked[w], k)
				} else if !benign(err) {
					t.Errorf("put %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(restarted)
		for i := 0; i < 8; i++ {
			if err := rs.Restart(DefaultServerConfig()); err != nil {
				t.Errorf("restart: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	lost := 0
	for w := 0; w < writers; w++ {
		for _, k := range acked[w] {
			v, err := rs.Get("t", k)
			if err != nil || string(v) != k {
				lost++
				t.Errorf("acknowledged write %s lost: %q, %v", k, v, err)
				if lost > 5 {
					t.Fatal("too many lost writes")
				}
			}
		}
	}
	total := 0
	for w := range acked {
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no writes were ever acknowledged")
	}
}

// TestSplitNeverLosesAcknowledgedWrites does the same for SplitRegion:
// acknowledged writes racing the split must surface in a daughter.
func TestSplitNeverLosesAcknowledgedWrites(t *testing.T) {
	m, c := newCluster(t, 2)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := c.Put("t", fmt.Sprintf("k%04d", i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	acked := make([][]string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%04d-w%d-%d", i%400, w, i)
				if err := c.Put("t", k, []byte(k)); err == nil {
					acked[w] = append(acked[w], k)
				} else if !benign(err) {
					t.Errorf("put %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl, _ := m.Table("t")
		for i := 0; i < 3; i++ {
			// Split the currently largest region, racing the writers.
			var biggest *Region
			for _, r := range tbl.Regions() {
				if biggest == nil || r.DataBytes() > biggest.DataBytes() {
					biggest = r
				}
			}
			if err := m.SplitRegion(biggest.Name()); err != nil {
				continue // too little data / degenerate key: fine
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	for w := range acked {
		for _, k := range acked[w] {
			v, err := c.Get("t", k)
			if err != nil || string(v) != k {
				t.Fatalf("acknowledged write %s lost after split: %q, %v", k, v, err)
			}
		}
	}
}

// TestMajorCompactPreservesConcurrentFlushMirrors verifies the
// swapFiles fix: an HDFS file mirrored by a flush racing MajorCompact
// must stay referenced by the region (no orphaned namenode bytes).
func TestMajorCompactPreservesConcurrentFlushMirrors(t *testing.T) {
	// A tiny heap makes the memstore flush every few hundred writes, so
	// flush mirrors actually race the compactions below (the default
	// config would never flush at this data volume).
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	small := ServerConfig{
		HeapBytes: 1 << 20, BlockCacheFraction: 0.39, MemstoreFraction: 0.26,
		BlockBytes: 4 << 10, Handlers: 10,
	}
	rs, err := m.AddServer("rs0", small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	tbl, _ := m.Table("t")
	region := tbl.Regions()[0]

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 4000; i++ {
			if err := rs.Put("t", fmt.Sprintf("k%05d", i%2000), make([]byte, 512)); err != nil && !benign(err) {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := rs.MajorCompact(region.Name()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	if region.Store().Stats().Flushes == 0 {
		t.Fatal("no flushes happened; the test exercised nothing")
	}

	// Every file the namenode still holds for this region is reachable
	// from the region's own list: nothing leaked.
	referenced := make(map[string]bool)
	for _, f := range region.Files() {
		referenced[f] = true
	}
	for _, f := range nn.Files() {
		if !referenced[f] {
			t.Fatalf("namenode file %s not referenced by any region (leak)", f)
		}
	}
}

// TestRestartSurvivesRetiredStore pins the Restart error path: even
// when a hosted region's store was retired underneath it (a racing
// split/close), the server must come back up rather than wedge in the
// stopped state with every future request failing.
func TestRestartSurvivesRetiredStore(t *testing.T) {
	m, _ := newCluster(t, 1)
	rs, _ := m.Server("rs0")
	if _, err := m.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Put("t", "a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Retire one region's store out from under the server.
	tbl, _ := m.Table("t")
	tbl.Regions()[1].Store().Close()
	err := rs.Restart(DefaultServerConfig())
	if err == nil {
		t.Fatal("restart over a retired hosted store reported success")
	}
	if !rs.Running() {
		t.Fatal("server wedged stopped after failed reopen")
	}
	if rs.Restarts() != 1 {
		t.Fatalf("restarts = %d", rs.Restarts())
	}
	// The healthy region still serves.
	if v, getErr := rs.Get("t", "a"); getErr != nil || string(v) != "v" {
		t.Fatalf("healthy region broken after restart: %q, %v", v, getErr)
	}
}

// TestMirrorIgnoresRetiredStore pins the store-identity guard in the
// mirror bookkeeping: a file stack read from a store the region no
// longer tracks must not mint phantom HDFS files.
func TestMirrorIgnoresRetiredStore(t *testing.T) {
	rs := newTestServer(t, "rs0")
	r := openRegion(t, rs, "t1", "", "")
	old := r.Store()
	if err := old.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	old.Flush()
	// Pretend a restart swapped in a fresh store.
	fresh := kv.NewStore(kv.Config{MemstoreFlushBytes: 1 << 20})
	r.resetMirror(fresh, false)
	if _, _, ok := r.mirrorActions(old, false); ok {
		t.Fatal("retired store accepted: phantom mirror")
	}
	// The tracked store still reconciles.
	if err := fresh.Put("k2", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fresh.Flush()
	adds, _, ok := r.mirrorActions(fresh, false)
	if !ok || len(adds) != 1 {
		t.Fatalf("tracked store rejected: ok=%v adds=%v", ok, adds)
	}
}
