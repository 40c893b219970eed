package perfmodel

import (
	"fmt"
	"testing"

	"met/internal/hbase"
)

// profile builds a ServerConfig with the given memory split and block
// size, mirroring Table 1 node profiles.
func profile(cache, memstore float64, blockKB int) hbase.ServerConfig {
	return hbase.ServerConfig{
		HeapBytes:          3 << 30,
		BlockCacheFraction: cache,
		MemstoreFraction:   memstore,
		BlockBytes:         blockKB << 10,
		Handlers:           10,
	}
}

// simpleModel builds one node, one region, one workload.
func simpleModel(cfg hbase.ServerConfig, mix OpMix, regionBytes float64, locality float64) *Model {
	m := NewModel()
	m.Nodes["rs0"] = &NodePerf{Name: "rs0", Config: cfg}
	m.Regions["r0"] = &RegionPerf{
		SizeBytes:   regionBytes,
		HotDataFrac: 0.4, HotTrafficFrac: 0.5, Locality: locality,
	}
	m.Placement["r0"] = "rs0"
	m.Workloads = []*WorkloadPerf{{
		Name: "W", Threads: 50, Mix: mix, RecordBytes: 1000,
		AvgScanRecords: 50, RegionShares: map[string]float64{"r0": 1}, Active: true,
	}}
	return m
}

func TestValidate(t *testing.T) {
	m := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 250e6, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Placement["ghost"] = "rs0"
	if m.Validate() == nil {
		t.Fatal("unknown region accepted")
	}
	delete(m.Placement, "ghost")
	m.Placement["r0"] = "ghostnode"
	if m.Validate() == nil {
		t.Fatal("unknown node accepted")
	}
	m.Placement["r0"] = "rs0"
	m.Workloads[0].RegionShares["r0"] = 0.5
	if m.Validate() == nil {
		t.Fatal("shares not summing to 1 accepted")
	}
	m.Workloads[0].RegionShares["r0"] = 1
	m.Workloads[0].Mix = OpMix{Read: 0.5}
	if m.Validate() == nil {
		t.Fatal("mix not summing to 1 accepted")
	}
}

func TestSolveDeterministic(t *testing.T) {
	build := func() *Model { return simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 250e6, 1) }
	a := build().Solve()
	b := build().Solve()
	if a.ThroughputOps["W"] != b.ThroughputOps["W"] {
		t.Fatalf("non-deterministic: %v vs %v", a.ThroughputOps["W"], b.ThroughputOps["W"])
	}
}

func TestReadThroughputInPaperRange(t *testing.T) {
	// A fully cached read-only region on a read-profile node should
	// serve on the order of 10-30 kops/s with 50 threads (WorkloadC's
	// neighborhood in Figure 1).
	m := simpleModel(profile(0.55, 0.10, 32), OpMix{Read: 1}, 250e6, 1)
	x := m.Solve().ThroughputOps["W"]
	if x < 8000 || x > 45000 {
		t.Fatalf("read throughput = %.0f, want ~10-30k", x)
	}
}

func TestBiggerCacheHelpsReads(t *testing.T) {
	// Region bigger than the small cache: misses hit disk.
	big := simpleModel(profile(0.55, 0.10, 64), OpMix{Read: 1}, 4e9, 1).Solve()
	small := simpleModel(profile(0.10, 0.55, 64), OpMix{Read: 1}, 4e9, 1).Solve()
	if big.ThroughputOps["W"] <= small.ThroughputOps["W"]*1.2 {
		t.Fatalf("read profile %.0f not clearly above write profile %.0f",
			big.ThroughputOps["W"], small.ThroughputOps["W"])
	}
}

func TestBiggerMemstoreHelpsWrites(t *testing.T) {
	// Hosting the paper's usual 4 regions per node, a write-profile
	// node's per-region memstore share is ~8x the read-profile's, so
	// its flush amplification — and write disk demand — is much lower.
	build := func(cfg hbase.ServerConfig) *Model {
		m := NewModel()
		m.Nodes["rs0"] = &NodePerf{Name: "rs0", Config: cfg}
		shares := map[string]float64{}
		for i := 0; i < 4; i++ {
			r := fmt.Sprintf("r%d", i)
			m.Regions[r] = &RegionPerf{SizeBytes: 250e6, HotDataFrac: 0.4, HotTrafficFrac: 0.5, Locality: 1}
			m.Placement[r] = "rs0"
			shares[r] = 0.25
		}
		m.Workloads = []*WorkloadPerf{{
			Name: "W", Threads: 50, Mix: OpMix{Write: 1}, RecordBytes: 1000,
			AvgScanRecords: 50, RegionShares: shares, Active: true,
		}}
		return m
	}
	wr := build(profile(0.10, 0.55, 64)).Solve()
	rd := build(profile(0.55, 0.10, 64)).Solve()
	if wr.ThroughputOps["W"] <= rd.ThroughputOps["W"] {
		t.Fatalf("write profile %.0f not above read profile %.0f for writes",
			wr.ThroughputOps["W"], rd.ThroughputOps["W"])
	}
}

func TestBiggerBlocksHelpScans(t *testing.T) {
	// Uncachable region (large), scan-only workload.
	scan128 := simpleModel(profile(0.55, 0.10, 128), OpMix{Scan: 1}, 8e9, 1).Solve()
	scan32 := simpleModel(profile(0.55, 0.10, 32), OpMix{Scan: 1}, 8e9, 1).Solve()
	if scan128.ThroughputOps["W"] <= scan32.ThroughputOps["W"] {
		t.Fatalf("128KB blocks %.1f not above 32KB %.1f for scans",
			scan128.ThroughputOps["W"], scan32.ThroughputOps["W"])
	}
}

func TestSmallerBlocksHelpRandomReads(t *testing.T) {
	rd32 := simpleModel(profile(0.39, 0.26, 32), OpMix{Read: 1}, 8e9, 1).Solve()
	rd128 := simpleModel(profile(0.39, 0.26, 128), OpMix{Read: 1}, 8e9, 1).Solve()
	if rd32.ThroughputOps["W"] <= rd128.ThroughputOps["W"] {
		t.Fatalf("32KB blocks %.0f not above 128KB %.0f for random reads",
			rd32.ThroughputOps["W"], rd128.ThroughputOps["W"])
	}
}

func TestLowLocalityHurts(t *testing.T) {
	local := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 8e9, 1.0).Solve()
	remote := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 8e9, 0.0).Solve()
	if remote.ThroughputOps["W"] >= local.ThroughputOps["W"] {
		t.Fatalf("remote %.0f not below local %.0f", remote.ThroughputOps["W"], local.ThroughputOps["W"])
	}
}

func TestOfflineNodeDegradesThroughput(t *testing.T) {
	up := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 250e6, 1)
	down := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 250e6, 1)
	down.Nodes["rs0"].Offline = true
	xUp := up.Solve().ThroughputOps["W"]
	xDown := down.Solve().ThroughputOps["W"]
	if xDown >= xUp/10 {
		t.Fatalf("offline throughput %.0f not <<%.0f", xDown, xUp)
	}
}

func TestBackgroundCompactionLoad(t *testing.T) {
	idle := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 8e9, 1)
	busy := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 8e9, 1)
	busy.Nodes["rs0"].BackgroundDiskBytesPerSec = 80e6 // compaction at ~80 MB/s
	xi := idle.Solve().ThroughputOps["W"]
	xb := busy.Solve().ThroughputOps["W"]
	if xb >= xi {
		t.Fatalf("compaction load did not hurt: %.0f vs %.0f", xb, xi)
	}
}

func TestTargetThroughputCap(t *testing.T) {
	m := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 250e6, 1)
	m.Workloads[0].TargetOpsPerSec = 1500
	x := m.Solve().ThroughputOps["W"]
	if x > 1501 {
		t.Fatalf("target exceeded: %.0f", x)
	}
	if x < 1400 {
		t.Fatalf("target not approached: %.0f", x)
	}
}

func TestInactiveWorkloadZero(t *testing.T) {
	m := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 1}, 250e6, 1)
	m.Workloads[0].Active = false
	s := m.Solve()
	if s.ThroughputOps["W"] != 0 {
		t.Fatalf("inactive workload throughput = %v", s.ThroughputOps["W"])
	}
}

func TestMoreNodesMoreThroughput(t *testing.T) {
	build := func(nodes int) *Model {
		m := NewModel()
		shares := map[string]float64{}
		for i := 0; i < 8; i++ {
			r := fmt.Sprintf("r%d", i)
			m.Regions[r] = &RegionPerf{SizeBytes: 2e9, HotDataFrac: 0.4, HotTrafficFrac: 0.5, Locality: 1}
			shares[r] = 1.0 / 8
		}
		for i := 0; i < nodes; i++ {
			n := fmt.Sprintf("rs%d", i)
			m.Nodes[n] = &NodePerf{Name: n, Config: profile(0.39, 0.26, 64)}
		}
		for i := 0; i < 8; i++ {
			m.Placement[fmt.Sprintf("r%d", i)] = fmt.Sprintf("rs%d", i%nodes)
		}
		m.Workloads = []*WorkloadPerf{{
			Name: "W", Threads: 200, Mix: OpMix{Read: 0.6, Write: 0.4},
			RecordBytes: 1000, AvgScanRecords: 50, RegionShares: shares, Active: true,
		}}
		return m
	}
	x2 := build(2).Solve().Total()
	x4 := build(4).Solve().Total()
	if x4 <= x2*1.1 {
		t.Fatalf("scaling failed: 2 nodes %.0f, 4 nodes %.0f", x2, x4)
	}
}

func TestSkewedPlacementUnderperformsBalanced(t *testing.T) {
	build := func(skewed bool) *Model {
		m := NewModel()
		// Small, fully-cached regions: nodes are CPU-bound, so load
		// skew — not cache pressure — is what differentiates placements.
		shares := map[string]float64{"hot": 0.34, "mid": 0.26, "c1": 0.2, "c2": 0.2}
		for r := range shares {
			m.Regions[r] = &RegionPerf{SizeBytes: 250e6, HotDataFrac: 0.4, HotTrafficFrac: 0.5, Locality: 1}
		}
		m.Nodes["rs0"] = &NodePerf{Name: "rs0", Config: profile(0.39, 0.26, 64)}
		m.Nodes["rs1"] = &NodePerf{Name: "rs1", Config: profile(0.39, 0.26, 64)}
		if skewed {
			// Hotspot and intermediate together.
			m.Placement = map[string]string{"hot": "rs0", "mid": "rs0", "c1": "rs1", "c2": "rs1"}
		} else {
			m.Placement = map[string]string{"hot": "rs0", "c1": "rs0", "mid": "rs1", "c2": "rs1"}
		}
		m.Workloads = []*WorkloadPerf{{
			Name: "W", Threads: 100, Mix: OpMix{Read: 0.7, Write: 0.3},
			RecordBytes: 1000, AvgScanRecords: 50, RegionShares: shares, Active: true,
		}}
		return m
	}
	balanced := build(false).Solve().Total()
	skewed := build(true).Solve().Total()
	if skewed >= balanced {
		t.Fatalf("skewed %.0f not below balanced %.0f", skewed, balanced)
	}
}

func TestUtilizationsBounded(t *testing.T) {
	m := simpleModel(profile(0.39, 0.26, 64), OpMix{Read: 0.5, Write: 0.3, Scan: 0.1, RMW: 0.1}, 8e9, 0.5)
	m.Workloads[0].Threads = 500
	s := m.Solve()
	for n, u := range s.NodeCPU {
		if u < 0 || u > 1 {
			t.Fatalf("cpu[%s] = %v", n, u)
		}
	}
	for n, u := range s.NodeDisk {
		if u < 0 || u > 1 {
			t.Fatalf("disk[%s] = %v", n, u)
		}
	}
	for n, u := range s.NodeNet {
		if u < 0 || u > 1 {
			t.Fatalf("net[%s] = %v", n, u)
		}
	}
	if s.CacheHit["rs0"] < 0 || s.CacheHit["rs0"] > 1 {
		t.Fatalf("hit = %v", s.CacheHit["rs0"])
	}
	if s.Total() <= 0 {
		t.Fatal("no throughput")
	}
	if s.ResponseTime["W"] <= 0 {
		t.Fatal("no response time")
	}
}

func TestHitRatioCurve(t *testing.T) {
	r := &RegionPerf{SizeBytes: 1000, HotDataFrac: 0.4, HotTrafficFrac: 0.5}
	if h := hitRatio(r, 1000); h != 1 {
		t.Fatalf("full cache hit = %v", h)
	}
	if h := hitRatio(r, 2000); h != 1 {
		t.Fatalf("oversize cache hit = %v", h)
	}
	// Cache exactly the hot set: hit = hot traffic.
	if h := hitRatio(r, 400); h != 0.5 {
		t.Fatalf("hot-set cache hit = %v", h)
	}
	// Half the hot set.
	if h := hitRatio(r, 200); h != 0.25 {
		t.Fatalf("half-hot cache hit = %v", h)
	}
	// Hot set + half the cold set.
	if h := hitRatio(r, 700); h != 0.75 {
		t.Fatalf("mixed cache hit = %v", h)
	}
	// Degenerate regions.
	if h := hitRatio(&RegionPerf{SizeBytes: 0}, 0); h != 1 {
		t.Fatalf("empty region hit = %v", h)
	}
	flat := &RegionPerf{SizeBytes: 1000, HotDataFrac: 0, HotTrafficFrac: 0}
	if h := hitRatio(flat, 500); h != 0.5 {
		t.Fatalf("uniform region hit = %v", h)
	}
}

func TestWriteAmpMonotone(t *testing.T) {
	c := DefaultCostModel()
	small := c.writeAmp(8e6)
	big := c.writeAmp(512e6)
	if small <= big {
		t.Fatalf("write amp not monotone: small=%v big=%v", small, big)
	}
	if c.writeAmp(0) != c.FlushAmpMax {
		t.Fatal("zero memstore should clamp to max")
	}
	if c.writeAmp(1e18) < 1 {
		t.Fatal("amp below 1")
	}
}

func BenchmarkSolve(b *testing.B) {
	m := NewModel()
	shares := map[string]float64{}
	for i := 0; i < 21; i++ {
		r := fmt.Sprintf("r%d", i)
		m.Regions[r] = &RegionPerf{SizeBytes: 1e9, HotDataFrac: 0.4, HotTrafficFrac: 0.5, Locality: 1}
		shares[r] = 1.0 / 21
	}
	for i := 0; i < 5; i++ {
		n := fmt.Sprintf("rs%d", i)
		m.Nodes[n] = &NodePerf{Name: n, Config: profile(0.39, 0.26, 64)}
	}
	i := 0
	for r := range m.Regions {
		m.Placement[r] = fmt.Sprintf("rs%d", i%5)
		i++
	}
	m.Workloads = []*WorkloadPerf{{
		Name: "W", Threads: 255, Mix: OpMix{Read: 0.5, Write: 0.4, Scan: 0.1},
		RecordBytes: 1000, AvgScanRecords: 50, RegionShares: shares, Active: true,
	}}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Solve()
	}
}
