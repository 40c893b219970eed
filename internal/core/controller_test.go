package core

import (
	"fmt"
	"testing"

	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/metrics"
	"met/internal/placement"
	"met/internal/sim"
)

// buildCluster creates a functional cluster with three tables whose
// access patterns differ (read-only, write-only, mixed), 2 regions each,
// on `servers` homogeneous nodes.
func buildCluster(t *testing.T, servers int) (*hbase.Master, *hbase.Client) {
	t.Helper()
	m := hbase.NewMaster(hdfs.NewNamenode(2))
	for i := 0; i < servers; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), hbase.DefaultServerConfig()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"reads", "writes", "mixed"} {
		if _, err := m.CreateTable(tbl, []string{"m"}); err != nil {
			t.Fatal(err)
		}
	}
	return m, hbase.NewClient(m)
}

// driveLoad issues n operations with distinct per-table patterns.
func driveLoad(t *testing.T, c *hbase.Client, n int) {
	t.Helper()
	rng := sim.NewRNG(42)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%c%04d", 'a'+rng.Intn(26), rng.Intn(5000))
		c.Put("writes", k, []byte("v"))
		c.Put("reads", k, []byte("v"))
		c.Get("reads", k)
		c.Get("reads", k)
		c.Get("reads", k)
		if i%2 == 0 {
			c.Put("mixed", k, []byte("v"))
		} else {
			c.Get("mixed", k)
		}
	}
}

func newTestController(m *hbase.Master) *Controller {
	params := DefaultParams()
	params.MinSamples = 2
	params.MinNodes = 2
	// One sequential client keeps a node's handlers busy 1-3% of the
	// time (measured): driveLoad reads as heavy, so the controller
	// decides on overload.
	params.CPUHigh = 0.005
	dm := NewDecisionMaker(params, Table1Profiles())
	return NewController(&MasterCluster{Master: m}, dm)
}

func TestControllerInitialReconfiguration(t *testing.T) {
	m, c := buildCluster(t, 3)
	ctrl := newTestController(m)
	// Two monitoring rounds with load in between.
	driveLoad(t, c, 300)
	ctrl.Tick()
	driveLoad(t, c, 300)
	ctrl.Tick()
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	if ctrl.Actuations() == 0 {
		t.Fatal("controller never actuated")
	}
	// The cluster is now heterogeneous: at least two distinct configs.
	configs := map[string]bool{}
	for _, rs := range m.Servers() {
		configs[rs.Config().String()] = true
	}
	if len(configs) < 2 {
		t.Fatalf("cluster still homogeneous: %v", configs)
	}
	// Data still available after the rolling reconfiguration.
	driveLoad(t, c, 50)
	if _, err := c.Scan("reads", "", "", 10); err != nil {
		t.Fatalf("post-reconfig scan: %v", err)
	}
}

func TestControllerClassifiesNodesByWorkload(t *testing.T) {
	m, c := buildCluster(t, 3)
	ctrl := newTestController(m)
	var lastDecision Decision
	ctrl.OnDecision = func(d Decision, _ ApplyReport) {
		if d.Reconfigure {
			lastDecision = d
		}
	}
	for round := 0; round < 3; round++ {
		driveLoad(t, c, 200)
		ctrl.Tick()
	}
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	if lastDecision.Target == nil {
		t.Fatal("no reconfiguration decision")
	}
	// The target must place the write table's regions on a node whose
	// profile is Write (or ReadWrite when folded), and the read table's
	// on Read.
	typeOf := map[string]placement.AccessType{}
	for _, ns := range lastDecision.Target {
		for _, p := range ns.Partitions {
			typeOf[p] = ns.Type
		}
	}
	for p, ty := range typeOf {
		switch {
		case len(p) >= 6 && p[:6] == "writes":
			if ty != placement.Write {
				t.Errorf("write region %s typed %v", p, ty)
			}
		case len(p) >= 5 && p[:5] == "reads":
			if ty != placement.Read {
				t.Errorf("read region %s typed %v", p, ty)
			}
		}
	}
}

func TestControllerHealthyClusterUntouched(t *testing.T) {
	m, c := buildCluster(t, 2)
	params := DefaultParams()
	params.MinSamples = 2
	params.CPULow = 0 // nothing is ever "underloaded"
	dm := NewDecisionMaker(params, Table1Profiles())
	ctrl := NewController(&MasterCluster{Master: m}, dm)
	driveLoad(t, c, 100)
	ctrl.Tick()
	driveLoad(t, c, 100)
	ctrl.Tick()
	if ctrl.Actuations() != 0 {
		t.Fatalf("actuated %d times on a healthy cluster", ctrl.Actuations())
	}
	for _, rs := range m.Servers() {
		if rs.Restarts() != 0 {
			t.Fatal("server restarted without cause")
		}
	}
}

func TestControllerSchedulerIntegration(t *testing.T) {
	m, c := buildCluster(t, 2)
	ctrl := newTestController(m)
	sched := sim.NewScheduler()
	// Load is injected before each tick via a competing event series.
	sched.EachTick(0, 30*sim.Second, func(now sim.Time) bool {
		driveLoad(t, c, 100)
		return now < 5*sim.Minute
	})
	sched.EachTick(15*sim.Second, 30*sim.Second, func(now sim.Time) bool {
		if now > 5*sim.Minute {
			return false
		}
		ctrl.Tick()
		return true
	})
	sched.RunUntil(5 * sim.Minute)
	if ctrl.Decisions() == 0 {
		t.Fatal("no decisions on scheduler")
	}
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalActuatorAddAndRemove(t *testing.T) {
	m, c := buildCluster(t, 2)
	mc := &MasterCluster{Master: m}
	params := DefaultParams()
	act := NewActuator(mc, NewMonitor(mc), params, Table1Profiles())

	driveLoad(t, c, 100)
	// Target: spread everything over rs0 plus a new node, dropping rs1.
	var parts []string
	for _, tbl := range []string{"reads", "writes", "mixed"} {
		tb, _ := m.Table(tbl)
		for _, r := range tb.Regions() {
			parts = append(parts, r.Name())
		}
	}
	target := []placement.NodeState{
		{Node: "rs0", Type: placement.Read, Partitions: parts[:3]},
		{Node: "rs-new", Type: placement.Write, Partitions: parts[3:]},
		{Node: "rs1", Type: placement.ReadWrite, Partitions: nil},
	}
	rep, err := act.Apply(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NodesAdded) != 1 || rep.NodesAdded[0] != "rs-new" {
		t.Fatalf("added = %v", rep.NodesAdded)
	}
	if len(rep.NodesRemoved) != 1 || rep.NodesRemoved[0] != "rs1" {
		t.Fatalf("removed = %v", rep.NodesRemoved)
	}
	if rep.RegionMoves == 0 {
		t.Fatal("no region moves")
	}
	// Data intact on the new topology.
	driveLoad(t, c, 50)
	srvs := m.Servers()
	if len(srvs) != 2 {
		t.Fatalf("servers = %d", len(srvs))
	}
	// Profiles applied.
	rs0, _ := m.Server("rs0")
	if rs0.Config().BlockBytes != 32<<10 {
		t.Fatalf("rs0 not read-profiled: %v", rs0.Config())
	}
	rsNew, _ := m.Server("rs-new")
	if rsNew.Config().MemstoreFraction != 0.55 {
		t.Fatalf("rs-new not write-profiled: %v", rsNew.Config())
	}
}

func TestProvisionNames(t *testing.T) {
	act := &Actuator{}
	names := act.ProvisionNames(3)
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatal("duplicate provision name")
		}
		seen[n] = true
	}
}

func TestMonitorAccumulatesDeltas(t *testing.T) {
	m, c := buildCluster(t, 2)
	mon := NewMonitor(&MasterCluster{Master: m})
	driveLoad(t, c, 100)
	mon.Poll()
	driveLoad(t, c, 100)
	mon.Poll()
	view := mon.View()
	if len(view.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(view.Nodes))
	}
	if len(view.Partitions) != 6 {
		t.Fatalf("partitions = %d", len(view.Partitions))
	}
	var total int64
	for _, p := range view.Partitions {
		total += p.Requests.Total()
	}
	if total == 0 {
		t.Fatal("no accumulated requests")
	}
	mon.Reset()
	if mon.Samples() != 0 {
		t.Fatal("samples not reset")
	}
	view = mon.View()
	for _, p := range view.Partitions {
		if p.Requests.Total() != 0 {
			t.Fatalf("requests survived reset: %+v", p)
		}
	}
}

func TestMonitorNodeTypes(t *testing.T) {
	mon := NewMonitor(nil)
	if mon.nodeTypes["rs0"] != placement.ReadWrite {
		t.Fatal("default type should be ReadWrite")
	}
	mon.SetNodeType("rs0", placement.Scan)
	if mon.nodeTypes["rs0"] != placement.Scan {
		t.Fatal("type not recorded")
	}
}

// TestControllerEmptyPlanIsNoActuation: a decision whose target is the
// layout the cluster already has — the second of two identical
// overloaded decisions, after the first applied its plan — changes
// nothing and counts as no actuation.
func TestControllerEmptyPlanIsNoActuation(t *testing.T) {
	f := newFakeCluster(false, map[string]string{"r0": "rs0", "r1": "rs1"})
	observe(f, map[string]float64{"rs0": 0.95, "rs1": 0.5})
	params := DefaultParams()
	params.MinSamples = 2
	params.MinNodes, params.MaxNodes = 2, 2
	ctrl := NewController(f, NewDecisionMaker(params, Table1Profiles()))
	var reps []ApplyReport
	ctrl.OnDecision = func(d Decision, rep ApplyReport) {
		if !d.Reconfigure {
			t.Fatalf("decision %d does not reconfigure: %+v", len(reps), d)
		}
		reps = append(reps, rep)
	}
	var n int64
	for len(reps) < 2 {
		n += 100
		f.regionObs = []metrics.RegionObservation{
			{Region: "r0", Node: f.assign["r0"], Requests: rc(n, 0, 0)},
			{Region: "r1", Node: f.assign["r1"], Requests: rc(0, n, 0)},
		}
		ctrl.Tick()
	}
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	if !reps[0].Changed() || reps[1].Changed() {
		t.Fatalf("reports = %+v, want the first plan to change the cluster and the second not", reps)
	}
	if got := ctrl.Actuations(); got != 1 {
		t.Fatalf("actuations = %d over one plan that changed something and one that did not, want 1", got)
	}
}
