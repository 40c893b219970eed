package core

import (
	"fmt"
	"testing"

	"met/internal/metrics"
	"met/internal/placement"
)

func rc(r, w, s int64) metrics.RequestCounts {
	return metrics.RequestCounts{Reads: r, Writes: w, Scans: s}
}

func healthyView(nodes int) ClusterView {
	var v ClusterView
	for i := 0; i < nodes; i++ {
		v.Nodes = append(v.Nodes, NodeView{Name: fmt.Sprintf("rs%d", i), CPU: 0.5})
	}
	return v
}

func TestTable1ProfilesValid(t *testing.T) {
	p := Table1Profiles()
	for _, cfg := range p {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	rd := p[placement.Read]
	if rd.BlockCacheFraction != 0.55 || rd.MemstoreFraction != 0.10 || rd.BlockBytes != 32<<10 {
		t.Fatalf("read profile = %+v", rd)
	}
	wr := p[placement.Write]
	if wr.BlockCacheFraction != 0.10 || wr.MemstoreFraction != 0.55 || wr.BlockBytes != 64<<10 {
		t.Fatalf("write profile = %+v", wr)
	}
	rw := p[placement.ReadWrite]
	if rw.BlockCacheFraction != 0.45 || rw.MemstoreFraction != 0.20 || rw.BlockBytes != 32<<10 {
		t.Fatalf("rw profile = %+v", rw)
	}
	sc := p[placement.Scan]
	if sc.BlockCacheFraction != 0.55 || sc.MemstoreFraction != 0.10 || sc.BlockBytes != 128<<10 {
		t.Fatalf("scan profile = %+v", sc)
	}
	// All sums land exactly on the 65% rule.
	for ty, cfg := range p {
		if sum := cfg.BlockCacheFraction + cfg.MemstoreFraction; sum != 0.65 {
			t.Errorf("%v profile sums to %v", ty, sum)
		}
	}
}

func TestStageAHealthy(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	h, sub := dm.stageA(healthyView(4))
	if h != HealthAcceptable || sub != 0 {
		t.Fatalf("health = %v, sub = %v", h, sub)
	}
	// Empty view is acceptable.
	if h, _ := dm.stageA(ClusterView{}); h != HealthAcceptable {
		t.Fatalf("empty view health = %v", h)
	}
}

func TestStageAOverload(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	v := healthyView(4)
	v.Nodes[0].CPU = 0.95
	h, sub := dm.stageA(v)
	if h != HealthOverloaded {
		t.Fatalf("health = %v", h)
	}
	if sub != 0.25 {
		t.Fatalf("suboptimal = %v", sub)
	}
	// IO wait alone triggers overload too.
	v = healthyView(2)
	v.Nodes[1].IOWait = 0.9
	if h, _ := dm.stageA(v); h != HealthOverloaded {
		t.Fatalf("io-wait health = %v", h)
	}
	// Memory pressure alone triggers overload.
	v = healthyView(2)
	v.Nodes[0].Memory = 0.99
	if h, _ := dm.stageA(v); h != HealthOverloaded {
		t.Fatalf("memory health = %v", h)
	}
}

func TestStageAUnderloadRequiresAllNodesIdle(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	v := healthyView(4)
	v.Nodes[0].CPU = 0.05
	// Only one idle node: not underloaded.
	if h, _ := dm.stageA(v); h != HealthAcceptable {
		t.Fatalf("health = %v", h)
	}
	for i := range v.Nodes {
		v.Nodes[i].CPU = 0.05
	}
	h, _ := dm.stageA(v)
	if h != HealthUnderloaded {
		t.Fatalf("health = %v", h)
	}
	// At MinNodes, never underloaded.
	p := DefaultParams()
	p.MinNodes = 4
	dm = NewDecisionMaker(p, Table1Profiles())
	if h, _ := dm.stageA(v); h != HealthAcceptable {
		t.Fatalf("at-min health = %v", h)
	}
}

func TestStageBQuadraticGrowth(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	dm.firstTime = false
	// Below the sub-optimal threshold, additions still grow 1,2,4,8.
	want := []int{1, 2, 4, 8, 16}
	for i, w := range want {
		if got := dm.stageB(0.3, false); got != w {
			t.Fatalf("iteration %d: add %d, want %d", i, got, w)
		}
	}
}

func TestStageBLinearRemoval(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	dm.firstTime = false
	dm.stageB(0.3, false) // grow once so the counter is 2
	for i := 0; i < 3; i++ {
		if got := dm.stageB(0.2, true); got != -1 {
			t.Fatalf("removal %d: got %d, want -1", i, got)
		}
	}
	// Removal resets the quadratic counter.
	if got := dm.stageB(0.3, false); got != 1 {
		t.Fatalf("post-removal add = %d, want 1", got)
	}
}

func TestStageBFirstTimeReconfigures(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	if got := dm.stageB(0.3, false); got != 0 {
		t.Fatalf("firstTime add = %d, want 0 (InitialReconfiguration)", got)
	}
}

func TestStageBFirstTimeSkipsStraightToAddition(t *testing.T) {
	// Paper: if it is the first time but sub-optimal nodes exceed the
	// threshold, proceed straight to addition.
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	if got := dm.stageB(0.75, false); got != 1 {
		t.Fatalf("overloaded firstTime add = %d, want 1", got)
	}
	if dm.PendingGrowth() != 2 {
		t.Fatalf("counter = %d, want 2", dm.PendingGrowth())
	}
}

func TestStageCGroupsAndPacks(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	view := ClusterView{
		Nodes: healthyView(5).Nodes,
	}
	// The paper's Section 3 layout: 8 rw partitions (A+F), 4 read (C),
	// 4 scan (E), 5 write (B+D).
	for i := 0; i < 4; i++ {
		view.Partitions = append(view.Partitions,
			PartitionView{Name: fmt.Sprintf("A%d", i), Requests: rc(50, 50, 0)},
			PartitionView{Name: fmt.Sprintf("F%d", i), Requests: rc(50, 50, 0)},
			PartitionView{Name: fmt.Sprintf("C%d", i), Requests: rc(100, 0, 0)},
			PartitionView{Name: fmt.Sprintf("E%d", i), Requests: rc(2, 5, 93)},
			PartitionView{Name: fmt.Sprintf("B%d", i), Requests: rc(0, 100, 0)},
		)
	}
	view.Partitions = append(view.Partitions, PartitionView{Name: "D0", Requests: rc(5, 95, 0)})
	sets := dm.stageC(view, 5)
	if len(sets) != 5 {
		t.Fatalf("sets = %d, want 5", len(sets))
	}
	counts := map[placement.AccessType]int{}
	placed := 0
	for _, s := range sets {
		counts[s.Type]++
		placed += len(s.Partitions)
	}
	if placed != 21 {
		t.Fatalf("placed %d partitions, want 21", placed)
	}
	// 8 rw partitions of 21 on 5 nodes -> 2 rw slots; others 1 each.
	if counts[placement.ReadWrite] != 2 || counts[placement.Read] != 1 ||
		counts[placement.Scan] != 1 || counts[placement.Write] != 1 {
		t.Fatalf("group slots = %v", counts)
	}
}

func TestDecideHealthyNoAction(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	dm.firstTime = false
	dm.nodesToChange = 8
	d := dm.Decide(healthyView(3), nil)
	if d.Reconfigure || d.NodesToAdd != 0 || d.Health != HealthAcceptable {
		t.Fatalf("decision = %+v", d)
	}
	// Healthy state resets the growth counter.
	if dm.PendingGrowth() != 1 {
		t.Fatalf("growth = %d", dm.PendingGrowth())
	}
}

func TestDecideInitialReconfiguration(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	v := healthyView(2)
	v.Nodes[0].CPU = 0.95 // one overloaded node, below 50% threshold
	v.Partitions = []PartitionView{
		{Name: "p0", Node: "rs0", Requests: rc(100, 0, 0)},
		{Name: "p1", Node: "rs0", Requests: rc(0, 100, 0)},
		{Name: "p2", Node: "rs1", Requests: rc(50, 50, 0)},
	}
	d := dm.Decide(v, nil)
	if !d.Reconfigure {
		t.Fatal("no reconfiguration on first overload")
	}
	if d.NodesToAdd != 0 {
		t.Fatalf("first time added %d nodes", d.NodesToAdd)
	}
	if len(d.Target) != 2 {
		t.Fatalf("target = %v", d.Target)
	}
	if dm.firstTime {
		t.Fatal("firstTime not cleared")
	}
	total := 0
	for _, n := range d.Target {
		total += len(n.Partitions)
	}
	if total != 3 {
		t.Fatalf("target places %d partitions", total)
	}
}

func TestDecideAddsNodesWhenMostOverloaded(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	v := healthyView(2)
	v.Nodes[0].CPU = 0.95
	v.Nodes[1].CPU = 0.95
	v.Partitions = []PartitionView{
		{Name: "p0", Node: "rs0", Requests: rc(100, 0, 0)},
		{Name: "p1", Node: "rs1", Requests: rc(100, 0, 0)},
	}
	d := dm.Decide(v, []string{"new0", "new1", "new2", "new3"})
	if d.NodesToAdd != 1 {
		t.Fatalf("added %d, want 1", d.NodesToAdd)
	}
	// The new node appears in the target.
	found := false
	for _, n := range d.Target {
		if n.Node == "new0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("new node missing from target %v", d.Target)
	}
	// Next overloaded decision doubles.
	d = dm.Decide(v, []string{"new0", "new1", "new2", "new3"})
	if d.NodesToAdd != 2 {
		t.Fatalf("second add = %d, want 2", d.NodesToAdd)
	}
}

func TestDecideRemovesOneNodeWhenIdle(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	dm.firstTime = false
	v := healthyView(3)
	for i := range v.Nodes {
		v.Nodes[i].CPU = 0.05
	}
	v.Partitions = []PartitionView{
		{Name: "p0", Node: "rs0", Requests: rc(10, 0, 0)},
		{Name: "p1", Node: "rs1", Requests: rc(10, 0, 0)},
		{Name: "p2", Node: "rs2", Requests: rc(10, 0, 0)},
	}
	d := dm.Decide(v, nil)
	if d.NodesToAdd != -1 {
		t.Fatalf("NodesToAdd = %d, want -1", d.NodesToAdd)
	}
	// One node in the target ends up with no partitions.
	empty := 0
	for _, n := range d.Target {
		if len(n.Partitions) == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("%d empty nodes in target %v", empty, d.Target)
	}
}

func TestDecideRespectsMaxNodes(t *testing.T) {
	p := DefaultParams()
	p.MaxNodes = 3
	dm := NewDecisionMaker(p, Table1Profiles())
	dm.firstTime = false
	dm.nodesToChange = 8
	v := healthyView(3)
	for i := range v.Nodes {
		v.Nodes[i].CPU = 0.99
	}
	d := dm.Decide(v, []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"})
	if d.NodesToAdd != 0 {
		t.Fatalf("NodesToAdd = %d beyond MaxNodes", d.NodesToAdd)
	}
}

func TestDecideRespectsProvisionedNames(t *testing.T) {
	dm := NewDecisionMaker(DefaultParams(), Table1Profiles())
	dm.firstTime = false
	dm.nodesToChange = 4
	v := healthyView(2)
	for i := range v.Nodes {
		v.Nodes[i].CPU = 0.99
	}
	d := dm.Decide(v, []string{"only-one"})
	if d.NodesToAdd != 1 {
		t.Fatalf("NodesToAdd = %d with one name available", d.NodesToAdd)
	}
}

func TestHealthString(t *testing.T) {
	for _, h := range []Health{HealthAcceptable, HealthOverloaded, HealthUnderloaded, Health(9)} {
		if h.String() == "" {
			t.Fatal("empty health string")
		}
	}
}
