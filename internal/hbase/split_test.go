package hbase

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"met/internal/hdfs"
	"met/internal/metrics"
	"met/internal/sim"
)

func TestSplitRegionKeepsData(t *testing.T) {
	m, c := newCluster(t, 2)
	tbl, _ := m.CreateTable("t", nil) // single region
	for i := 0; i < 200; i++ {
		c.Put("t", fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	parent := tbl.RegionNames()[0]
	if err := m.SplitRegion(parent); err != nil {
		t.Fatal(err)
	}
	tbl, _ = m.Table("t") // a snapshot: re-fetch after the split
	if tbl.NumRegions() != 2 {
		t.Fatalf("regions = %d, want 2", tbl.NumRegions())
	}
	// Daughters partition the key space at the median.
	regions := tbl.Regions()
	if regions[0].EndKey() != regions[1].StartKey() {
		t.Fatalf("daughters not adjacent: [%s,%s) [%s,%s)",
			regions[0].StartKey(), regions[0].EndKey(), regions[1].StartKey(), regions[1].EndKey())
	}
	// Every key still readable; routing handles the new boundaries.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, err := c.Get("t", key)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", key, v, err)
		}
	}
	// Scans cross the new boundary seamlessly.
	got, err := c.Scan("t", "", "", -1)
	if err != nil || len(got) != 200 {
		t.Fatalf("scan = %d entries, %v", len(got), err)
	}
	// The parent's assignment is gone; the daughters share its host.
	if _, ok := m.HostOf(parent); ok {
		t.Fatal("parent still assigned")
	}
	h0, _ := m.HostOf(regions[0].Name())
	h1, _ := m.HostOf(regions[1].Name())
	if h0 != h1 || h0 == "" {
		t.Fatalf("daughters hosted on %q and %q", h0, h1)
	}
}

func TestSplitRegionErrors(t *testing.T) {
	m, c := newCluster(t, 1)
	tbl, _ := m.CreateTable("t", nil)
	if err := m.SplitRegion("ghost"); err == nil {
		t.Fatal("unknown region split accepted")
	}
	// Too little data.
	c.Put("t", "only", []byte("v"))
	if err := m.SplitRegion(tbl.RegionNames()[0]); err == nil {
		t.Fatal("split of single-row region accepted")
	}
	// Region still serves after the refused split.
	if _, err := c.Get("t", "only"); err != nil {
		t.Fatal(err)
	}
}

func TestAutoSplitThreshold(t *testing.T) {
	m, c := newCluster(t, 1)
	tbl, _ := m.CreateTable("t", nil)
	for i := 0; i < 300; i++ {
		c.Put("t", fmt.Sprintf("k%04d", i), make([]byte, 1024))
	}
	// Nothing splits below the threshold.
	if split := m.AutoSplit(1 << 30); len(split) != 0 {
		t.Fatalf("split %v below threshold", split)
	}
	// A tiny threshold splits the region.
	split := m.AutoSplit(64 << 10)
	if len(split) != 1 {
		t.Fatalf("split = %v, want 1 region", split)
	}
	tbl, _ = m.Table("t")
	if tbl.NumRegions() != 2 {
		t.Fatalf("regions = %d", tbl.NumRegions())
	}
	// Defaults: <=0 uses the 250 MB default (nothing here is that big).
	if split := m.AutoSplit(0); len(split) != 0 {
		t.Fatalf("default threshold split %v", split)
	}
}

func TestSplitRepeatedlyMaintainsOrder(t *testing.T) {
	m, c := newCluster(t, 2)
	tbl, _ := m.CreateTable("t", nil)
	for i := 0; i < 400; i++ {
		c.Put("t", fmt.Sprintf("k%04d", i), make([]byte, 256))
	}
	for round := 0; round < 3; round++ {
		m.AutoSplit(8 << 10)
	}
	tbl, _ = m.Table("t")
	if tbl.NumRegions() < 4 {
		t.Fatalf("regions = %d after repeated splits", tbl.NumRegions())
	}
	// Regions tile the key space in order.
	regions := tbl.Regions()
	for i := 1; i < len(regions); i++ {
		if regions[i-1].EndKey() != regions[i].StartKey() {
			t.Fatalf("gap between region %d and %d", i-1, i)
		}
	}
	if regions[0].StartKey() != "" || regions[len(regions)-1].EndKey() != "" {
		t.Fatal("outer bounds not open")
	}
	// All data still present.
	got, err := c.Scan("t", "", "", -1)
	if err != nil || len(got) != 400 {
		t.Fatalf("scan = %d, %v", len(got), err)
	}
}

func TestStochasticBalancerBalancesLoad(t *testing.T) {
	loads := map[string]metrics.RequestCounts{}
	var regions []string
	for i := 0; i < 12; i++ {
		r := fmt.Sprintf("r%02d", i)
		regions = append(regions, r)
		load := int64(10)
		if i < 3 {
			load = 300 // three hot regions
		}
		loads[r] = metrics.RequestCounts{Reads: load}
	}
	b := &StochasticBalancer{
		RNG:    sim.NewRNG(5),
		LoadOf: func(r string) metrics.RequestCounts { return loads[r] },
	}
	plan := b.Assign(regions, []string{"s0", "s1", "s2"})
	if len(plan) != 12 {
		t.Fatalf("plan covers %d regions", len(plan))
	}
	// The three hot regions end up on three distinct servers.
	hotHosts := map[string]bool{}
	for i := 0; i < 3; i++ {
		hotHosts[plan[fmt.Sprintf("r%02d", i)]] = true
	}
	if len(hotHosts) != 3 {
		t.Fatalf("hot regions on %d servers, want 3 (plan %v)", len(hotHosts), plan)
	}
}

func TestStochasticBalancerBeatsRandomOnSkew(t *testing.T) {
	loads := map[string]metrics.RequestCounts{}
	var regions []string
	rng := sim.NewRNG(7)
	for i := 0; i < 20; i++ {
		r := fmt.Sprintf("r%02d", i)
		regions = append(regions, r)
		loads[r] = metrics.RequestCounts{Reads: int64(rng.Intn(100)) + 1}
	}
	servers := []string{"s0", "s1", "s2", "s3"}
	loadOf := func(r string) metrics.RequestCounts { return loads[r] }

	imbalance := func(plan map[string]string) float64 {
		per := map[string]float64{}
		var total float64
		for r, s := range plan {
			per[s] += float64(loads[r].Total())
			total += float64(loads[r].Total())
		}
		mean := total / float64(len(servers))
		worst := 0.0
		for _, s := range servers {
			if per[s] > worst {
				worst = per[s]
			}
		}
		return worst / mean
	}
	stoch := &StochasticBalancer{RNG: sim.NewRNG(1), LoadOf: loadOf}
	random := &RandomBalancer{RNG: sim.NewRNG(1)}
	si := imbalance(stoch.Assign(regions, servers))
	ri := imbalance(random.Assign(regions, servers))
	if si >= ri {
		t.Fatalf("stochastic imbalance %.3f not below random %.3f", si, ri)
	}
	if si > 1.25 {
		t.Fatalf("stochastic imbalance %.3f too high", si)
	}
}

func TestStochasticBalancerLocalityTerm(t *testing.T) {
	regions := []string{"r0", "r1"}
	servers := []string{"s0", "s1"}
	// r0's data lives on s1, r1's on s0: the locality term should pin
	// each region to its data.
	b := &StochasticBalancer{
		RNG: sim.NewRNG(2),
		LocalityOf: func(r, n string) float64 {
			if (r == "r0" && n == "s1") || (r == "r1" && n == "s0") {
				return 1
			}
			return 0
		},
		LocalityWeight: 10,
	}
	plan := b.Assign(regions, servers)
	if plan["r0"] != "s1" || plan["r1"] != "s0" {
		t.Fatalf("plan ignored locality: %v", plan)
	}
}

func TestStochasticBalancerDeterministicWithoutRNG(t *testing.T) {
	regions := []string{"a", "b", "c", "d"}
	servers := []string{"s0", "s1"}
	b := &StochasticBalancer{}
	p1 := b.Assign(regions, servers)
	p2 := b.Assign(regions, servers)
	for r := range p1 {
		if p1[r] != p2[r] {
			t.Fatal("deterministic mode diverged")
		}
	}
	// Degenerate inputs.
	if len(b.Assign(nil, servers)) != 0 || len(b.Assign(regions, nil)) != 0 {
		t.Fatal("degenerate inputs mishandled")
	}
}

func TestStochasticBalancerAsMasterBalancer(t *testing.T) {
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	for i := 0; i < 3; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), DefaultServerConfig()); err != nil {
			t.Fatal(err)
		}
	}
	m.SetBalancer(&StochasticBalancer{RNG: sim.NewRNG(3)})
	tbl, err := m.CreateTable("t", []string{"b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRegions() != 6 {
		t.Fatalf("regions = %d", tbl.NumRegions())
	}
	// Every region assigned to a live server.
	for _, r := range tbl.RegionNames() {
		if host, ok := m.HostOf(r); !ok || host == "" {
			t.Fatalf("region %s unassigned", r)
		}
	}
}

// TestScanNeverTruncatesAcrossSplit scans a whole table from several
// goroutines while its regions split underneath them. A scan may fail
// outright while a parent is closed (that is the caller's retry), but a
// scan that returns nil must return every row: the client used to take
// the region's end from the table before the server chose which region
// answered, so a scan served by a split's low daughter jumped to the
// parent's end and silently dropped the high daughter's rows.
func TestScanNeverTruncatesAcrossSplit(t *testing.T) {
	const rows, scanners, rounds, splitsPerRound = 600, 3, 12, 6
	var ok, truncated atomic.Int64
	for round := 0; round < rounds; round++ {
		m, c := newCluster(t, 2)
		tbl, _ := m.CreateTable("t", nil)
		for i := 0; i < rows; i++ {
			if err := c.Put("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; s < scanners; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, err := c.Scan("t", "", "", -1)
					if err != nil {
						continue // mid-split refusal, not truncation
					}
					ok.Add(1)
					if len(got) != rows {
						truncated.Add(1)
						t.Errorf("round %d: scan returned %d of %d rows with a nil error", round, len(got), rows)
						return
					}
				}
			}()
		}
		for i := 0; i < splitsPerRound; i++ {
			// Split the region holding the most rows: always splittable.
			var biggest *Region
			tbl, _ = m.Table("t")
			for _, r := range tbl.Regions() {
				if biggest == nil || r.DataBytes() > biggest.DataBytes() {
					biggest = r
				}
			}
			if err := m.SplitRegion(biggest.Name()); err != nil {
				t.Fatalf("round %d split %d: %v", round, i, err)
			}
		}
		close(stop)
		wg.Wait()
		if truncated.Load() > 0 {
			break
		}
	}
	if ok.Load() == 0 {
		t.Fatal("no scan succeeded; the test observed nothing")
	}
	t.Logf("%d successful scans, %d truncated", ok.Load(), truncated.Load())
}
