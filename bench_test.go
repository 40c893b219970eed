package met

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"met/internal/exp"
	"met/internal/metrics"
	"met/internal/placement"
	"met/internal/sim"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each bench reports
// the headline quantities as custom metrics so `bench_output.txt` doubles
// as the reproduction record; EXPERIMENTS.md interprets them against the
// paper's numbers. Absolute simulator throughputs differ from the
// authors' physical testbed; the shapes — who wins and by what factor —
// are the reproduction targets.

// BenchmarkFig1ManualStrategies regenerates Figure 1: the three
// placement/configuration strategies under the six YCSB workloads,
// percentiles over 5 runs.
func BenchmarkFig1ManualStrategies(b *testing.B) {
	var r *Figure1
	for i := 0; i < b.N; i++ {
		r = RunFigure1(5, 1)
	}
	het := r.Summary[exp.ManualHeterogeneous]["Total"].P50
	hom := r.Summary[exp.ManualHomogeneous]["Total"].P50
	rnd := r.Summary[exp.RandomHomogeneous]["Total"]
	b.ReportMetric(het, "het-p50-ops/s")
	b.ReportMetric(hom, "hom-p50-ops/s")
	b.ReportMetric(rnd.P50, "rnd-p50-ops/s")
	b.ReportMetric(het/hom, "het/hom(paper~1.35)")
	b.ReportMetric((rnd.P90-rnd.P5)/rnd.P50, "rnd-spread")
	r.Print(io.Discard)
}

// BenchmarkFig4Convergence regenerates Figure 4: MeT reconfiguring a
// Random-Homogeneous cluster on the fly.
func BenchmarkFig4Convergence(b *testing.B) {
	var r *Figure4
	for i := 0; i < b.N; i++ {
		r = RunFigure4(42)
	}
	var tailMeT, tailHet float64
	for i := 25; i < 30; i++ {
		tailMeT += r.MeT[i] / 5
		tailHet += r.ManualHet[i] / 5
	}
	b.ReportMetric(tailMeT/tailHet, "met/het-final(paper~1.0)")
	b.ReportMetric(r.MinDuringReconfig, "trough-ops/s(paper~7500)")
	b.ReportMetric(r.ReconfigEnd.Minutes()-r.ReconfigStart.Minutes(), "window-min(paper~6)")
}

// BenchmarkTable2TPCC regenerates Table 2: PyTPCC tpmC under the three
// settings.
func BenchmarkTable2TPCC(b *testing.B) {
	var r *Table2
	for i := 0; i < b.N; i++ {
		r = RunTable2(7)
	}
	b.ReportMetric(r.ManualHomogeneous, "tpmC-manual(paper=25380)")
	b.ReportMetric(r.MeTWithReconfig, "tpmC-met(paper=31020)")
	b.ReportMetric(r.MeTNoReconfig, "tpmC-met-clean(paper=33720)")
	b.ReportMetric(100*(1-r.MeTWithReconfig/r.MeTNoReconfig), "overhead-%(paper=8)")
}

// BenchmarkFig5Cumulative regenerates Figure 5: cumulative operations
// after the 33-minute overload phase, MeT vs Tiramola.
func BenchmarkFig5Cumulative(b *testing.B) {
	var r *Elasticity
	for i := 0; i < b.N; i++ {
		r = RunElasticity(11)
	}
	p1 := int(r.Phase1End/sim.Minute) - 1
	met := r.MeT.CumulativeOps[p1]
	tira := r.Tiramola.CumulativeOps[p1]
	b.ReportMetric(met/1e6, "met-Mops(paper~3.0)")
	b.ReportMetric(tira/1e6, "tira-Mops(paper~2.3)")
	b.ReportMetric(100*(met/tira-1), "advantage-%(paper=31)")
}

// BenchmarkFig6Elasticity regenerates Figure 6: node counts and
// scale-down behaviour over both phases.
func BenchmarkFig6Elasticity(b *testing.B) {
	var r *Elasticity
	for i := 0; i < b.N; i++ {
		r = RunElasticity(11)
	}
	b.ReportMetric(float64(r.MeT.PeakNodes), "met-peak-nodes(paper=9)")
	b.ReportMetric(float64(r.Tiramola.PeakNodes), "tira-peak-nodes(paper=11)")
	b.ReportMetric(float64(r.MeT.FinalNodes), "met-final-nodes(paper=6)")
	b.ReportMetric(float64(r.Tiramola.FinalNodes), "tira-final-nodes")
}

// --- concurrent serving path benches ----------------------------------

// newServingCluster builds a loaded 3-server cluster for the parallel
// benchmarks: one pre-split table, 10k rows of 128 B.
func newServingCluster(b *testing.B) *Cluster {
	b.Helper()
	cluster, err := NewCluster(3)
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.CreateTable("bench", []string{"user2500", "user5000", "user7500"}); err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 128)
	for i := 0; i < 10000; i++ {
		if err := cluster.Put("bench", benchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	return cluster
}

func benchKey(i int) string { return fmt.Sprintf("user%04d", i%10000) }

// benchSeeds hands every RunParallel goroutine its own RNG stream.
var benchSeeds atomic.Uint64

// BenchmarkParallelGet measures the read path under goroutine fan-out.
// Compare -cpu=1 with -cpu=8 to see the RWMutex + sorted-index + atomic
// counter refactor: reads share every lock on the hot path, so ops/sec
// must scale with goroutines instead of flat-lining behind one mutex.
func BenchmarkParallelGet(b *testing.B) {
	cluster := newServingCluster(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := sim.NewRNG(benchSeeds.Add(1))
		for pb.Next() {
			if _, err := cluster.Get("bench", benchKey(rng.Intn(10000))); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelPut measures the write path under fan-out. Writers to
// the same region still serialize on its store (HBase's contract), but
// writers to different regions proceed independently.
func BenchmarkParallelPut(b *testing.B) {
	cluster := newServingCluster(b)
	val := make([]byte, 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := sim.NewRNG(benchSeeds.Add(1))
		for pb.Next() {
			if err := cluster.Put("bench", benchKey(rng.Intn(10000)), val); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelScan measures short range scans (10 rows) under
// fan-out; scans hold a store's read lock for the whole iteration, so
// they exercise reader-reader sharing hardest.
func BenchmarkParallelScan(b *testing.B) {
	cluster := newServingCluster(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := sim.NewRNG(benchSeeds.Add(1))
		for pb.Next() {
			if _, _, err := cluster.Scan("bench", benchKey(rng.Intn(10000)), "", 10); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- ablation benches (DESIGN.md section 5) ---------------------------

// BenchmarkAblationAddPolicy compares Algorithm 1's quadratic node
// addition against linear addition: iterations to reach a demanded size
// and the over-provisioning incurred.
func BenchmarkAblationAddPolicy(b *testing.B) {
	need := 8 // the paper's own worked example
	var quadIters, quadOver, linIters int
	for i := 0; i < b.N; i++ {
		// Quadratic: 1, 2, 4, 8...
		size, step, iters, over := 0, 1, 0, 0
		for size < need {
			size += step
			step *= 2
			iters++
		}
		over = size - need
		quadIters, quadOver = iters, over
		// Linear: 1 per iteration.
		linIters = need
	}
	b.ReportMetric(float64(quadIters), "quad-iters(paper=4)")
	b.ReportMetric(float64(quadOver), "quad-overprovision(paper=7)")
	b.ReportMetric(float64(linIters), "linear-iters(paper=8)")
}

// BenchmarkAblationAssignment compares LPT against first-fit and
// round-robin on the paper's hotspot load shape, reporting makespan
// imbalance (1.0 = perfect).
func BenchmarkAblationAssignment(b *testing.B) {
	rng := sim.NewRNG(3)
	parts := make([]placement.Partition, 24)
	for i := range parts {
		// Hotspot-ish loads: a few heavy, many light.
		load := int64(100)
		if i%4 == 0 {
			load = 340
		} else if i%4 == 1 {
			load = 260
		}
		load += int64(rng.Intn(20))
		parts[i] = placement.Partition{Name: fmt.Sprintf("p%02d", i),
			Requests: metrics.RequestCounts{Reads: load}}
	}
	nodes := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	var lpt, ff, rr float64
	for i := 0; i < b.N; i++ {
		lpt = imbalance(placement.AssignLPT(nodes, parts, 4))
		ff = imbalance(assignFirstFit(nodes, parts, 4))
		rr = imbalance(assignRoundRobin(nodes, parts))
	}
	b.ReportMetric(lpt, "lpt-imbalance")
	b.ReportMetric(ff, "firstfit-imbalance")
	b.ReportMetric(rr, "roundrobin-imbalance")
}

// BenchmarkAblationOutputComputation compares Algorithm 3's
// set-intersection matching against naive re-placement, reporting
// partition moves saved.
func BenchmarkAblationOutputComputation(b *testing.B) {
	current := []placement.NodeState{
		{Node: "rs0", Type: placement.Read, Partitions: []string{"a", "b", "c", "d"}},
		{Node: "rs1", Type: placement.Write, Partitions: []string{"e", "f", "g"}},
		{Node: "rs2", Type: placement.Scan, Partitions: []string{"h", "i"}},
	}
	optimal := []placement.TargetSet{
		{Type: placement.Write, Partitions: []string{"e", "f", "g"}},
		{Type: placement.Read, Partitions: []string{"a", "b", "c", "i"}},
		{Type: placement.Scan, Partitions: []string{"h", "d"}},
	}
	var matched, naive int
	for i := 0; i < b.N; i++ {
		out := placement.ComputeOutput(current, optimal, false)
		matched = partitionMoves(current, out)
		// Naive: apply sets to nodes in order, ignoring similarity.
		naiveOut := placement.ComputeOutput(current, optimal, true)
		naive = partitionMoves(current, naiveOut)
	}
	b.ReportMetric(float64(matched), "moves-matched")
	b.ReportMetric(float64(naive), "moves-naive")
}

// assignFirstFit is an ablation baseline: place each partition (in
// input order) on the first node with room under max partitions per
// node (<= 0: uncapped). It ignores load entirely.
func assignFirstFit(nodes []string, partitions []placement.Partition, max int) placement.Assignment {
	out := make(placement.Assignment, len(nodes))
	for _, n := range nodes {
		out[n] = nil
	}
	if len(nodes) == 0 {
		return out
	}
	nodeOrder := slices.Sorted(slices.Values(nodes))
	for _, p := range partitions {
		dst := nodeOrder[0] // every node full: overflow onto the first
		for _, n := range nodeOrder {
			if max <= 0 || len(out[n]) < max {
				dst = n
				break
			}
		}
		out[dst] = append(out[dst], p)
	}
	return out
}

// assignRoundRobin is a second ablation baseline: deal partitions to
// nodes in turn, balancing counts but not load — the behaviour of
// HBase's default balancer.
func assignRoundRobin(nodes []string, partitions []placement.Partition) placement.Assignment {
	out := make(placement.Assignment, len(nodes))
	for _, n := range nodes {
		out[n] = nil
	}
	if len(nodes) == 0 {
		return out
	}
	nodeOrder := slices.Sorted(slices.Values(nodes))
	for i, p := range partitions {
		n := nodeOrder[i%len(nodeOrder)]
		out[n] = append(out[n], p)
	}
	return out
}

// imbalance returns an assignment's makespan (its largest per-node
// load) divided by the mean per-node load: 1.0 is perfectly balanced.
func imbalance(a placement.Assignment) float64 {
	var sum, max float64
	for _, parts := range a {
		var load float64
		for _, p := range parts {
			load += p.Load()
		}
		sum += load
		max = math.Max(max, load)
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(a)))
}

// partitionMoves counts the partitions target hosts on another node
// than current does: the actuation cost Algorithm 3 minimizes.
func partitionMoves(current, target []placement.NodeState) int {
	host := make(map[string]string)
	for _, n := range current {
		for _, p := range n.Partitions {
			host[p] = n.Node
		}
	}
	moves := 0
	for _, n := range target {
		for _, p := range n.Partitions {
			if host[p] != n.Node {
				moves++
			}
		}
	}
	return moves
}

// loadParts returns one partition per load, named p00, p01, ...
func loadParts(loads ...float64) []placement.Partition {
	out := make([]placement.Partition, len(loads))
	for i, l := range loads {
		out[i] = placement.Partition{Name: fmt.Sprintf("p%02d", i), Requests: metrics.RequestCounts{Reads: int64(l)}}
	}
	return out
}

func TestAssignFirstFitAndRoundRobin(t *testing.T) {
	parts := loadParts(10, 1, 1, 1)
	ff := assignFirstFit([]string{"n0", "n1"}, parts, 2)
	if len(ff["n0"]) != 2 || len(ff["n1"]) != 2 {
		t.Fatalf("first fit = %v", ff)
	}
	rr := assignRoundRobin([]string{"n0", "n1"}, parts)
	if len(rr["n0"]) != 2 || len(rr["n1"]) != 2 {
		t.Fatalf("round robin = %v", rr)
	}
	// LPT beats first-fit on makespan here. Both spread the same load
	// over the same nodes, so imbalance orders them as makespan does.
	lpt := placement.AssignLPT([]string{"n0", "n1"}, parts, 0)
	if imbalance(lpt) > imbalance(ff) {
		t.Fatalf("LPT %v worse than first-fit %v", imbalance(lpt), imbalance(ff))
	}
	// Degenerate inputs.
	if len(assignFirstFit(nil, parts, 0)) != 0 || len(assignRoundRobin(nil, parts)) != 0 {
		t.Fatal("no-node baselines misbehaved")
	}
	// Overflowing cap still places everything.
	ff = assignFirstFit([]string{"n0"}, parts, 1)
	if len(ff["n0"]) != 4 {
		t.Fatalf("cap overflow = %v", ff)
	}
}

func TestImbalance(t *testing.T) {
	a := placement.Assignment{
		"n0": loadParts(10),
		"n1": loadParts(10),
	}
	if ib := imbalance(a); math.Abs(ib-1) > 1e-9 {
		t.Fatalf("balanced imbalance = %v", ib)
	}
	b := placement.Assignment{
		"n0": loadParts(20),
		"n1": nil,
	}
	if ib := imbalance(b); math.Abs(ib-2) > 1e-9 {
		t.Fatalf("skewed imbalance = %v", ib)
	}
	if imbalance(placement.Assignment{}) != 1 {
		t.Fatal("empty imbalance != 1")
	}
	if imbalance(placement.Assignment{"n0": nil}) != 1 {
		t.Fatal("zero-load imbalance != 1")
	}
}

// BenchmarkAblationSmoothing measures decision stability under a load
// spike with and without exponential smoothing: how far one spiky sample
// moves the CPU estimate the Decision Maker sees.
func BenchmarkAblationSmoothing(b *testing.B) {
	var smoothed, raw float64
	for i := 0; i < b.N; i++ {
		s := metrics.NewSmoother(0.5)
		for j := 0; j < 5; j++ {
			s.Observe(0.50)
		}
		smoothed = s.Observe(1.0) // one spike sample
		raw = 1.0
	}
	b.ReportMetric(smoothed, "smoothed-estimate")
	b.ReportMetric(raw, "raw-estimate")
}

// BenchmarkAblationThresholds sweeps the classification read threshold
// and reports how many of the paper's workloads keep their intended
// group (Section 3.3's grouping).
func BenchmarkAblationThresholds(b *testing.B) {
	counters := map[string]metrics.RequestCounts{
		"A": {Reads: 50, Writes: 50}, "B": {Writes: 100}, "C": {Reads: 100},
		"D": {Reads: 5, Writes: 95}, "E": {Reads: 5, Writes: 5, Scans: 90},
		"F": {Reads: 100, Writes: 50}, // RMW counts read+write
	}
	intended := map[string]placement.AccessType{
		"A": placement.ReadWrite, "B": placement.Write, "C": placement.Read,
		"D": placement.Write, "E": placement.Scan, "F": placement.ReadWrite,
	}
	match := func(readTh float64) (n float64) {
		th := placement.Thresholds{ReadFraction: readTh, WriteFraction: 0.6, ScanFraction: 0.6}
		for w, c := range counters {
			if placement.Classify(c, th) == intended[w] {
				n++
			}
		}
		return n
	}
	var at60, at70 float64
	for i := 0; i < b.N; i++ {
		at60 = match(0.60)
		at70 = match(0.70)
	}
	b.ReportMetric(at60, "correct-at-60%")
	b.ReportMetric(at70, "correct-at-70%")
}

// BenchmarkAblationCompactThresholds measures the actuation cost of the
// locality thresholds: bytes compacted under the paper's 70/90 split vs
// compacting everything below 90 regardless of profile.
func BenchmarkAblationCompactThresholds(b *testing.B) {
	regions := []struct {
		locality float64
		bytes    float64
		write    bool
	}{
		{0.85, 1e9, true}, {0.75, 1e9, true}, {0.60, 1e9, true},
		{0.85, 1e9, false}, {0.95, 1e9, false},
	}
	var split, uniform float64
	for i := 0; i < b.N; i++ {
		split, uniform = 0, 0
		for _, r := range regions {
			th := 0.9
			if r.write {
				th = 0.7
			}
			if r.locality < th {
				split += r.bytes
			}
			if r.locality < 0.9 {
				uniform += r.bytes
			}
		}
	}
	b.ReportMetric(split/1e9, "GB-compacted-70/90")
	b.ReportMetric(uniform/1e9, "GB-compacted-uniform90")
}
