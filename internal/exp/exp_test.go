package exp

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"met/internal/autoscale"
	"met/internal/core"
	"met/internal/placement"
	"met/internal/sim"
)

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{RandomHomogeneous, ManualHomogeneous, ManualHeterogeneous, Strategy(9)} {
		if s.String() == "" {
			t.Fatal("empty strategy string")
		}
	}
}

func TestBuildYCSBScenarioShape(t *testing.T) {
	sc := BuildYCSBScenario(5, 1)
	if len(sc.Model.Nodes) != 5 {
		t.Fatalf("nodes = %d", len(sc.Model.Nodes))
	}
	// 21 regions: 4 each for A,B,C,E,F plus 1 for D.
	if len(sc.Model.Regions) != 21 {
		t.Fatalf("regions = %d", len(sc.Model.Regions))
	}
	if len(sc.Model.Workloads) != 6 {
		t.Fatalf("workloads = %d", len(sc.Model.Workloads))
	}
	// Shares per workload sum to 1, and the model validates once placed.
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(1))
	if err := sc.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range sc.Model.Workloads {
		var sum float64
		for _, s := range w.RegionShares {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("workload %s shares sum to %v", w.Name, sum)
		}
	}
}

func TestApplyStrategiesPlaceEverything(t *testing.T) {
	for _, s := range []Strategy{RandomHomogeneous, ManualHomogeneous, ManualHeterogeneous} {
		sc := BuildYCSBScenario(5, 1)
		sc.ApplyStrategy(s, sim.NewRNG(7))
		if len(sc.Model.Placement) != len(sc.Model.Regions) {
			t.Fatalf("%v: placed %d of %d regions", s, len(sc.Model.Placement), len(sc.Model.Regions))
		}
		if err := sc.Model.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

func TestHeterogeneousUsesTable1Profiles(t *testing.T) {
	sc := BuildYCSBScenario(5, 1)
	sc.ApplyStrategy(ManualHeterogeneous, sim.NewRNG(1))
	configs := map[string]int{}
	for _, n := range sc.Model.Nodes {
		configs[n.Config.String()]++
	}
	if len(configs) < 3 {
		t.Fatalf("heterogeneous cluster has only %d distinct configs", len(configs))
	}
}

func TestDeploymentAccumulatesOps(t *testing.T) {
	sc := BuildYCSBScenario(5, 1)
	sc.ApplyStrategy(ManualHeterogeneous, sim.NewRNG(1))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	d.Start(2 * sim.Minute)
	sched.RunUntil(2 * sim.Minute)
	if d.TotalOps() <= 0 {
		t.Fatal("no operations recorded")
	}
	if len(d.Series) == 0 {
		t.Fatal("no series samples")
	}
	last := d.Series[len(d.Series)-1]
	if last.Total <= 0 || last.Nodes != 5 {
		t.Fatalf("last sample = %+v", last)
	}
}

func TestDeploymentMoveRegionDegradesLocality(t *testing.T) {
	sc := BuildYCSBScenario(3, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(2))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	var region, from string
	for r, n := range sc.Model.Placement {
		region, from = r, n
		break
	}
	var to string
	for n := range sc.Model.Nodes {
		if n != from {
			to = n
			break
		}
	}
	if err := d.MoveRegion(region, to); err != nil {
		t.Fatal(err)
	}
	if sc.Model.Placement[region] != to {
		t.Fatal("region not moved")
	}
	if loc := sc.Model.Regions[region].Locality; loc != d.MoveLocality {
		t.Fatalf("locality = %v, want %v", loc, d.MoveLocality)
	}
	// Errors on unknown region/node.
	if d.MoveRegion("ghost", to) == nil {
		t.Fatal("unknown region accepted")
	}
	if d.MoveRegion(region, "ghost") == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestDeploymentMajorCompactRestoresLocality(t *testing.T) {
	sc := BuildYCSBScenario(3, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(2))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	var region string
	for r := range sc.Model.Placement {
		region = r
		break
	}
	sc.Model.Regions[region].Locality = 0.25
	host := sc.Model.Placement[region]
	n, err := d.MajorCompact(region)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(sc.Model.Regions[region].SizeBytes) {
		t.Fatalf("compacted bytes = %d, want the region size", n)
	}
	if sc.Model.Nodes[host].BackgroundDiskBytesPerSec <= 0 {
		t.Fatal("no compaction disk load")
	}
	if sc.Model.Regions[region].Locality == 1 {
		t.Fatal("compaction completed before any time passed")
	}
	// 275 MB at ~1 GB/min: well within 1 minute.
	sched.RunUntil(2 * sim.Minute)
	if sc.Model.Regions[region].Locality != 1 {
		t.Fatal("locality not restored")
	}
	if sc.Model.Nodes[host].BackgroundDiskBytesPerSec != 0 {
		t.Fatal("disk load not released")
	}
}

func TestDeploymentRestartNode(t *testing.T) {
	sc := BuildYCSBScenario(2, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(3))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	cfg := sc.Model.Nodes["rs0"].Config.WithProfile(core.Table1Profiles()[placement.Read])
	done := false
	if err := d.RestartNode("rs0", cfg, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if !sc.Model.Nodes["rs0"].Offline {
		t.Fatal("node not offline during restart")
	}
	sched.RunUntil(d.RestartDuration + sim.Second)
	if !done || sc.Model.Nodes["rs0"].Offline {
		t.Fatal("restart did not complete")
	}
	if sc.Model.Nodes["rs0"].Config != cfg {
		t.Fatal("config not applied")
	}
	if sc.Model.Nodes["rs0"].ColdFraction <= 0 {
		t.Fatal("cache not cold after restart")
	}
	// Warmup decays over time (ticks drive it).
	d.Start(5 * sim.Minute)
	sched.RunUntil(5 * sim.Minute)
	if sc.Model.Nodes["rs0"].ColdFraction != 0 {
		t.Fatal("cache never warmed")
	}
	if d.RestartNode("ghost", cfg, nil) == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestDeploymentRemoveNodeGuard(t *testing.T) {
	sc := BuildYCSBScenario(2, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(4))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	if err := d.RemoveNode("rs0"); err == nil {
		t.Fatal("removed node still hosting regions")
	}
	// Move regions off, then removal succeeds.
	for r, host := range sc.Model.Placement {
		if host == "rs0" {
			if err := d.MoveRegion(r, "rs1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.RemoveNode("rs0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Model.Nodes["rs0"]; ok {
		t.Fatal("node still present")
	}
}

func TestFig1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r := RunFig1(5, 1)
	het := r.Summary[ManualHeterogeneous]["Total"].P50
	hom := r.Summary[ManualHomogeneous]["Total"].P50
	rndRaw := r.Raw[RandomHomogeneous]["Total"]
	var rndMean float64
	for _, v := range rndRaw {
		rndMean += v
	}
	rndMean /= float64(len(rndRaw))
	// Paper's headline shapes: heterogeneous beats the homogeneous
	// manual layout; the random mean sits below heterogeneous; the
	// scan workload benefits dramatically from its dedicated profile.
	if het <= hom {
		t.Errorf("Het p50 %.0f not above Manual-Hom p50 %.0f", het, hom)
	}
	if het <= rndMean {
		t.Errorf("Het p50 %.0f not above Random mean %.0f", het, rndMean)
	}
	eHet := r.Summary[ManualHeterogeneous]["E"].P50
	eHom := r.Summary[ManualHomogeneous]["E"].P50
	if eHet <= 1.5*eHom {
		t.Errorf("scan workload: het %.0f not well above hom %.0f", eHet, eHom)
	}
	// Random's run-to-run spread is wide (the paper's variance claim).
	spread := r.Summary[RandomHomogeneous]["Total"].P90 - r.Summary[RandomHomogeneous]["Total"].P5
	if spread < 0.15*rndMean {
		t.Errorf("random spread %.0f suspiciously narrow (mean %.0f)", spread, rndMean)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 1") {
		t.Fatal("print output malformed")
	}
}

func TestFig4Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := RunFig4(42)
	// MeT ends at Manual-Heterogeneous performance.
	var metTail, hetTail float64
	for i := 25; i < 30; i++ {
		metTail += at(r.MeT, i)
		hetTail += at(r.ManualHet, i)
	}
	if ratio := metTail / hetTail; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("final MeT/Het ratio = %.2f, want ~1.0", ratio)
	}
	// A visible reconfiguration dip, but never a collapse to zero.
	if r.MinDuringReconfig <= 1000 {
		t.Errorf("reconfiguration trough = %.0f, want > 1000", r.MinDuringReconfig)
	}
	if r.MinDuringReconfig >= metTail/5*0.9 {
		t.Errorf("no visible dip: trough %.0f vs steady %.0f", r.MinDuringReconfig, metTail/5)
	}
	// Window within the run and a few minutes long.
	if r.ReconfigEnd <= r.ReconfigStart || r.ReconfigEnd > 30*sim.Minute {
		t.Errorf("window [%v, %v] malformed", r.ReconfigStart, r.ReconfigEnd)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Fatal("print output malformed")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := RunTable2(7)
	if r.MeTNoReconfig <= r.ManualHomogeneous {
		t.Errorf("MeT config %.0f not above baseline %.0f", r.MeTNoReconfig, r.ManualHomogeneous)
	}
	if r.MeTWithReconfig <= r.ManualHomogeneous {
		t.Errorf("MeT with overhead %.0f not above baseline %.0f", r.MeTWithReconfig, r.ManualHomogeneous)
	}
	if r.MeTWithReconfig >= r.MeTNoReconfig {
		t.Errorf("reconfig overhead missing: %.0f vs %.0f", r.MeTWithReconfig, r.MeTNoReconfig)
	}
	// Overhead modest (paper: 8%).
	overhead := 1 - r.MeTWithReconfig/r.MeTNoReconfig
	if overhead > 0.25 {
		t.Errorf("overhead = %.0f%%, want modest", overhead*100)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Table 2") {
		t.Fatal("print output malformed")
	}
}

func TestElasticityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := RunElasticity(11)
	p1 := int(r.Phase1End/sim.Minute) - 1
	met := r.MeT.CumulativeOps[p1]
	tira := r.Tiramola.CumulativeOps[p1]
	if met <= tira {
		t.Errorf("MeT cumulative %.0f not above Tiramola %.0f", met, tira)
	}
	// Both systems grow the cluster during overload.
	if r.MeT.PeakNodes <= 6 {
		t.Errorf("MeT never scaled up (peak %d)", r.MeT.PeakNodes)
	}
	if r.Tiramola.PeakNodes <= 6 {
		t.Errorf("Tiramola never scaled up (peak %d)", r.Tiramola.PeakNodes)
	}
	// MeT sheds capacity in phase 2; Tiramola cannot while any node is
	// busy (the paper's central asymmetry).
	if r.MeT.FinalNodes >= r.MeT.PeakNodes {
		t.Errorf("MeT never scaled down (peak %d, final %d)", r.MeT.PeakNodes, r.MeT.FinalNodes)
	}
	if r.Tiramola.FinalNodes < r.Tiramola.PeakNodes {
		t.Errorf("Tiramola scaled down unexpectedly (peak %d, final %d)", r.Tiramola.PeakNodes, r.Tiramola.FinalNodes)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 5") || !strings.Contains(sb.String(), "Figure 6") {
		t.Fatal("print output malformed")
	}
}

// runMeTScenario runs MeT for 15 minutes over a Random-Homogeneous
// 5-node cluster and returns the run with every completed plan's report.
func runMeTScenario() (*Scenario, *Deployment, *MeTRunner, []core.ApplyReport) {
	sc := BuildYCSBScenario(5, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(5))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	d.RampUp = sim.Minute
	params := core.DefaultParams()
	params.MinNodes = 5
	params.MaxNodes = 5
	runner := NewMeTRunner(d, params)
	var reports []core.ApplyReport
	onDone := runner.Actuator.OnDone
	runner.Actuator.OnDone = func(rep core.ApplyReport, err error) {
		onDone(rep, err)
		reports = append(reports, rep)
	}
	seedTypes(runner, sc)
	d.Start(15 * sim.Minute)
	d.control(sim.Minute, 15*sim.Minute, runner.Tick)
	sched.RunUntil(15 * sim.Minute)
	return sc, d, runner, reports
}

func TestMeTRunnerReconfiguresDeployment(t *testing.T) {
	sc, _, runner, _ := runMeTScenario()
	if runner.Decisions() == 0 {
		t.Fatal("no decisions")
	}
	if runner.plans == 0 || runner.Window[1] == 0 {
		t.Fatal("no completed actuations")
	}
	configs := map[string]bool{}
	for _, n := range sc.Model.Nodes {
		configs[n.Config.String()] = true
	}
	if len(configs) < 2 {
		t.Fatal("cluster still homogeneous after MeT")
	}
}

// TestMeTRunnerDeterministic guards the figures against map-iteration
// order leaking into the plan: two identical runs must act identically
// and record the same series. Throughputs are compared to a relative
// 1e-9: the performance model sums floats in map order, which moves
// them by ~1e-12 between runs, while a different plan moves them by
// whole percents.
func TestMeTRunnerDeterministic(t *testing.T) {
	_, d1, r1, reps1 := runMeTScenario()
	_, d2, r2, reps2 := runMeTScenario()
	if len(reps1) == 0 {
		t.Fatal("no completed actuations")
	}
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if len(d1.Series) != len(d2.Series) {
		t.Fatalf("series lengths %d and %d", len(d1.Series), len(d2.Series))
	}
	for i, a := range d1.Series {
		b := d2.Series[i]
		if a.At != b.At || a.Nodes != b.Nodes || !same(a.Total, b.Total) || len(a.PerWL) != len(b.PerWL) {
			t.Fatalf("tick %d: %+v vs %+v", i, a, b)
		}
		for w, x := range a.PerWL {
			if !same(x, b.PerWL[w]) {
				t.Fatalf("tick %d workload %s: %v vs %v", i, w, x, b.PerWL[w])
			}
		}
	}
	if !reflect.DeepEqual(reps1, reps2) || r1.Window != r2.Window {
		t.Fatalf("two identical runs acted differently:\n%+v %v\n%+v %v", reps1, r1.Window, reps2, r2.Window)
	}
}

// TestMeTRunnerNeverReaddsRemovedNode: across Figure 6's MeT run, no
// node one plan removed is added back by a later plan — the Monitor
// forgets a node once it left the cluster.
func TestMeTRunnerNeverReaddsRemovedNode(t *testing.T) {
	removed := map[string]bool{}
	var readded []string
	runElasticity(1, func(sc *Scenario, d *Deployment) {
		act := elasticMeT(sc, d).Actuator
		onDone := act.OnDone
		act.OnDone = func(rep core.ApplyReport, err error) {
			onDone(rep, err)
			for _, n := range rep.NodesAdded {
				if removed[n] {
					readded = append(readded, n)
				}
			}
			for _, n := range rep.NodesRemoved {
				removed[n] = true
			}
		}
	})
	if len(removed) == 0 {
		t.Fatal("MeT never removed a node")
	}
	if len(readded) != 0 {
		t.Fatalf("plans re-added removed nodes %v (removed %v)", readded, slices.Sorted(maps.Keys(removed)))
	}
}

func TestSimActuatorBusyGate(t *testing.T) {
	sc := BuildYCSBScenario(3, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(6))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	runner := NewMeTRunner(d, core.DefaultParams())
	act := runner.Actuator
	var reports []core.ApplyReport
	onDone := act.OnDone
	act.OnDone = func(rep core.ApplyReport, err error) {
		onDone(rep, err)
		reports = append(reports, rep)
	}
	// A target that re-types every node, forcing restarts.
	ns := simpleTarget(sc)
	if _, err := act.Apply(ns); err != nil {
		t.Fatal(err)
	}
	if !act.Busy() {
		t.Fatal("actuator not busy mid-plan")
	}
	// A second Apply while busy is a no-op.
	if _, err := act.Apply(ns); err != nil {
		t.Fatal(err)
	}
	if runner.plans != 1 {
		t.Fatalf("busy windows = %d", runner.plans)
	}
	sched.RunUntil(10 * sim.Minute)
	if act.Busy() {
		t.Fatal("actuator stuck busy")
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
}

// simpleTarget builds a target that re-types every node.
func simpleTarget(sc *Scenario) []placement.NodeState {
	var out []placement.NodeState
	byNode := map[string][]string{}
	for r, n := range sc.Model.Placement {
		byNode[n] = append(byNode[n], r)
	}
	i := 0
	for _, n := range sc.NodeNames() {
		out = append(out, placement.NodeState{Node: n, Type: placement.AccessTypes[i%4], Partitions: byNode[n]})
		i++
	}
	return out
}

func TestTiramolaRunnerAddsUnderLoad(t *testing.T) {
	sc := BuildYCSBScenario(4, 2.5)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(8))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	d.RampUp = sim.Minute
	params := autoscale.DefaultParams()
	params.CPUHigh = 0.7
	params.CooldownEvaluations = 2
	runner := NewTiramolaRunner(d, params, sim.NewRNG(9))
	d.Start(20 * sim.Minute)
	d.control(sim.Minute, 20*sim.Minute, runner.Tick)
	sched.RunUntil(20 * sim.Minute)
	if len(runner.Adds) == 0 {
		t.Fatal("tiramola never added a node under overload")
	}
	if len(d.Model.Nodes) <= 4 {
		t.Fatalf("cluster did not grow: %d nodes", len(d.Model.Nodes))
	}
	// Random rebalancing destroyed locality somewhere.
	degraded := false
	for _, r := range d.Model.Regions {
		if r.Locality < 1 {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("rebalance never degraded locality")
	}
}
