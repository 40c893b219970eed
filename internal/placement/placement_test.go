package placement

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"met/internal/metrics"
	"met/internal/sim"
)

func rc(reads, writes, scans int64) metrics.RequestCounts {
	return metrics.RequestCounts{Reads: reads, Writes: writes, Scans: scans}
}

// paperThresholds are the paper's 60% rules.
var paperThresholds = Thresholds{ReadFraction: 0.6, WriteFraction: 0.6, ScanFraction: 0.6}

// loads returns the total load per node.
func (a Assignment) loads() map[string]float64 {
	out := make(map[string]float64, len(a))
	for node, parts := range a {
		var sum float64
		for _, p := range parts {
			sum += p.Load()
		}
		out[node] = sum
	}
	return out
}

// makespan returns the maximum per-node load, the quantity LPT minimizes.
func (a Assignment) makespan() float64 {
	var m float64
	for _, l := range a.loads() {
		if l > m {
			m = l
		}
	}
	return m
}

// assignExhaustive finds a minimum-makespan assignment by branch and
// bound over all partition->node mappings — the optimum LPT is checked
// against. It is exponential and guarded to small inputs: maxItems
// bounds partitions (<= 0 defaults to 12), beyond which it returns LPT's
// assignment.
func assignExhaustive(nodes []string, partitions []Partition, maxItems int) Assignment {
	if maxItems <= 0 {
		maxItems = 12
	}
	if len(partitions) > maxItems || len(nodes) == 0 {
		// Too large to enumerate; fall back to LPT, which is within
		// 4/3 of optimal anyway (Graham's bound).
		return AssignLPT(nodes, partitions, 0)
	}
	nodeOrder := append([]string(nil), nodes...)
	sort.Strings(nodeOrder)
	sorted := append([]Partition(nil), partitions...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Load() > sorted[j].Load() })

	best := AssignLPT(nodeOrder, sorted, 0)
	bestSpan := best.makespan()
	loads := make([]float64, len(nodeOrder))
	cur := make([]int, len(sorted)) // partition -> node index

	var rec func(i int)
	rec = func(i int) {
		if i == len(sorted) {
			span := 0.0
			for _, l := range loads {
				if l > span {
					span = l
				}
			}
			if span < bestSpan {
				bestSpan = span
				b := make(Assignment, len(nodeOrder))
				for _, n := range nodeOrder {
					b[n] = nil
				}
				for pi, ni := range cur {
					b[nodeOrder[ni]] = append(b[nodeOrder[ni]], sorted[pi])
				}
				best = b
			}
			return
		}
		seen := make(map[float64]bool) // symmetry break: skip equal-load nodes
		for ni := range nodeOrder {
			if seen[loads[ni]] {
				continue
			}
			seen[loads[ni]] = true
			if loads[ni]+sorted[i].Load() >= bestSpan {
				continue // bound
			}
			loads[ni] += sorted[i].Load()
			cur[i] = ni
			rec(i + 1)
			loads[ni] -= sorted[i].Load()
		}
	}
	rec(0)
	return best
}

// diff quantifies the actuation cost of going from current to target:
// how many partitions must move and how many nodes must restart with a
// new configuration. These are the quantities Algorithm 3 minimizes.
type diff struct {
	PartitionMoves int
	Reconfigs      int
}

// computeDiff compares two distributions node-by-node.
func computeDiff(current, target []NodeState) diff {
	curHost := make(map[string]string)
	curType := make(map[string]AccessType)
	for _, n := range current {
		curType[n.Node] = n.Type
		for _, p := range n.Partitions {
			curHost[p] = n.Node
		}
	}
	var d diff
	for _, n := range target {
		if t, ok := curType[n.Node]; !ok || t != n.Type {
			d.Reconfigs++
		}
		for _, p := range n.Partitions {
			if curHost[p] != n.Node {
				d.PartitionMoves++
			}
		}
	}
	return d
}

func TestClassifyPaperRules(t *testing.T) {
	th := paperThresholds
	cases := []struct {
		name string
		c    metrics.RequestCounts
		want AccessType
	}{
		{"pure reads (WorkloadC)", rc(100, 0, 0), Read},
		{"pure writes (WorkloadB)", rc(0, 100, 0), Write},
		{"95% scans (WorkloadE)", rc(5, 5, 90), Scan},
		{"50/50 (WorkloadA)", rc(50, 50, 0), ReadWrite},
		{"logging 95% insert (WorkloadD)", rc(5, 95, 0), Write},
		{"61% reads", rc(61, 39, 0), Read},
		{"exactly 60% reads is not >60%", rc(60, 40, 0), ReadWrite},
		{"no requests", rc(0, 0, 0), ReadWrite},
		{"read-heavy but scans dominate reads", rc(30, 10, 60), Scan},
		{"scans present but under threshold", rc(60, 10, 30), Read},
	}
	for _, c := range cases {
		if got := Classify(c.c, th); got != c.want {
			t.Errorf("%s: Classify(%+v) = %v, want %v", c.name, c.c, got, c.want)
		}
	}
}

func TestClassifyCustomThresholds(t *testing.T) {
	th := Thresholds{ReadFraction: 0.8, WriteFraction: 0.8, ScanFraction: 0.8}
	if got := Classify(rc(70, 30, 0), th); got != ReadWrite {
		t.Fatalf("70%% reads with 80%% threshold = %v", got)
	}
}

func TestAccessTypeString(t *testing.T) {
	for _, a := range AccessTypes {
		if a.String() == "" {
			t.Fatal("empty access type string")
		}
	}
	if AccessType(99).String() == "" {
		t.Fatal("unknown access type empty")
	}
}

func TestClassifyAll(t *testing.T) {
	parts := []Partition{
		{Name: "r", Requests: rc(100, 0, 0)},
		{Name: "w", Requests: rc(0, 100, 0)},
		{Name: "s", Requests: rc(0, 5, 95)},
		{Name: "rw", Requests: rc(50, 50, 0)},
	}
	groups := ClassifyAll(parts, paperThresholds)
	if len(groups[Read]) != 1 || len(groups[Write]) != 1 || len(groups[Scan]) != 1 || len(groups[ReadWrite]) != 1 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestNodesPerGroupPaperScenario(t *testing.T) {
	// Section 3.3: 21 partitions (8 rw, 4 read, 4 scan, 5 write) on 5
	// nodes -> rw gets 2, each other group 1.
	groups := map[AccessType][]Partition{
		ReadWrite: mkParts("rw", 8),
		Read:      mkParts("r", 4),
		Scan:      mkParts("s", 4),
		Write:     mkParts("w", 5),
	}
	got := NodesPerGroup(groups, 5)
	if got[ReadWrite] != 2 || got[Read] != 1 || got[Scan] != 1 || got[Write] != 1 {
		t.Fatalf("nodes per group = %v", got)
	}
}

func TestNodesPerGroupSumsToTotal(t *testing.T) {
	err := quick.Check(func(a, b, c, d uint8, nodesRaw uint8) bool {
		groups := map[AccessType][]Partition{}
		if a > 0 {
			groups[ReadWrite] = mkParts("rw", int(a%20)+1)
		}
		if b > 0 {
			groups[Read] = mkParts("r", int(b%20)+1)
		}
		if c > 0 {
			groups[Write] = mkParts("w", int(c%20)+1)
		}
		if d > 0 {
			groups[Scan] = mkParts("s", int(d%20)+1)
		}
		if len(groups) == 0 {
			return true
		}
		nodes := int(nodesRaw%10) + len(groups) // at least one per group
		got := NodesPerGroup(groups, nodes)
		sum := 0
		for _, n := range got {
			sum += n
		}
		if sum != nodes {
			return false
		}
		for ty, ps := range groups {
			if len(ps) > 0 && got[ty] == 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodesPerGroupEmpty(t *testing.T) {
	if got := NodesPerGroup(nil, 5); len(got) != 0 {
		t.Fatalf("empty groups -> %v", got)
	}
	groups := map[AccessType][]Partition{Read: mkParts("r", 3)}
	if got := NodesPerGroup(groups, 0); len(got) != 0 {
		t.Fatalf("zero nodes -> %v", got)
	}
}

func TestNodesPerGroupFewerNodesThanGroups(t *testing.T) {
	groups := map[AccessType][]Partition{
		Read:  mkParts("r", 5),
		Write: mkParts("w", 5),
		Scan:  mkParts("s", 5),
	}
	got := NodesPerGroup(groups, 2)
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != 2 {
		t.Fatalf("sum = %d, want 2: %v", sum, got)
	}
}

func mkParts(prefix string, n int) []Partition {
	out := make([]Partition, n)
	for i := range out {
		out[i] = Partition{Name: fmt.Sprintf("%s%02d", prefix, i), Requests: rc(10, 0, 0)}
	}
	return out
}

func loadParts(loads ...float64) []Partition {
	out := make([]Partition, len(loads))
	for i, l := range loads {
		out[i] = Partition{Name: fmt.Sprintf("p%02d", i), Requests: rc(int64(l), 0, 0)}
	}
	return out
}

func TestAssignLPTBalances(t *testing.T) {
	// Classic LPT example: loads 7,6,5,4,3 on 2 nodes. LPT yields
	// makespan 14 (7+4+3 / 6+5); the optimum is 13 (7+6 / 5+4+3),
	// within Graham's 7/6 bound for m=2.
	parts := loadParts(7, 6, 5, 4, 3)
	a := AssignLPT([]string{"n0", "n1"}, parts, 0)
	if got := a.makespan(); got != 14 {
		t.Fatalf("makespan = %v, want 14", got)
	}
	if opt := assignExhaustive([]string{"n0", "n1"}, parts, 12).makespan(); opt != 13 {
		t.Fatalf("optimal makespan = %v, want 13", opt)
	}
	total := 0
	for _, ps := range a {
		total += len(ps)
	}
	if total != 5 {
		t.Fatalf("assigned %d partitions", total)
	}
}

func TestAssignLPTHotspotSpread(t *testing.T) {
	// The paper's per-workload load split: one hotspot (34%), one
	// intermediate (26%), two cold (20% each). With 2 nodes, LPT puts
	// the hotspot alone with a cold partition, not with the intermediate.
	parts := loadParts(34, 26, 20, 20)
	a := AssignLPT([]string{"n0", "n1"}, parts, 2)
	loads := a.loads()
	if math.Abs(loads["n0"]-loads["n1"]) > 8 {
		t.Fatalf("imbalanced: %v", loads)
	}
	for _, ps := range a {
		if len(ps) != 2 {
			t.Fatalf("partition-count constraint violated: %v", a)
		}
	}
}

func TestAssignLPTRespectsCap(t *testing.T) {
	parts := loadParts(10, 9, 8, 7, 6, 5)
	a := AssignLPT([]string{"n0", "n1", "n2"}, parts, 2)
	for n, ps := range a {
		if len(ps) > 2 {
			t.Fatalf("node %s has %d partitions", n, len(ps))
		}
	}
}

func TestAssignLPTCapOverflowSpills(t *testing.T) {
	// 5 partitions, 2 nodes, cap 2: one partition must spill.
	parts := loadParts(5, 4, 3, 2, 1)
	a := AssignLPT([]string{"n0", "n1"}, parts, 2)
	total := 0
	for _, ps := range a {
		total += len(ps)
	}
	if total != 5 {
		t.Fatalf("lost partitions: %d", total)
	}
}

func TestAssignLPTEmpty(t *testing.T) {
	a := AssignLPT(nil, loadParts(1), 0)
	if len(a) != 0 {
		t.Fatalf("assignment on no nodes = %v", a)
	}
	a = AssignLPT([]string{"n0"}, nil, 0)
	if len(a["n0"]) != 0 {
		t.Fatal("partitions from nowhere")
	}
}

func TestAssignLPTDeterministic(t *testing.T) {
	parts := loadParts(5, 5, 5, 5)
	a := AssignLPT([]string{"n1", "n0"}, parts, 0)
	b := AssignLPT([]string{"n0", "n1"}, parts, 0)
	for n := range a {
		if len(a[n]) != len(b[n]) {
			t.Fatalf("node order changed result: %v vs %v", a, b)
		}
	}
}

func TestAssignLPTWithinGrahamBound(t *testing.T) {
	// Property: LPT makespan <= (4/3 - 1/3m) * OPT. Compare against
	// exhaustive for small instances.
	rng := sim.NewRNG(7)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2) // 2-3 nodes
		k := 4 + rng.Intn(5) // 4-8 partitions
		var parts []Partition
		for i := 0; i < k; i++ {
			parts = append(parts, Partition{Name: fmt.Sprintf("p%d", i), Requests: rc(int64(rng.Intn(100)+1), 0, 0)})
		}
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%d", i)
		}
		lpt := AssignLPT(nodes, parts, 0).makespan()
		opt := assignExhaustive(nodes, parts, 12).makespan()
		bound := (4.0/3.0 - 1.0/(3.0*float64(n))) * opt
		if lpt > bound+1e-9 {
			t.Fatalf("trial %d: LPT %v exceeds Graham bound %v (opt %v)", trial, lpt, bound, opt)
		}
	}
}

func TestAssignExhaustiveOptimal(t *testing.T) {
	// 3,3,2,2,2 on 2 nodes: OPT = 6 (3+3 / 2+2+2).
	parts := loadParts(3, 3, 2, 2, 2)
	a := assignExhaustive([]string{"n0", "n1"}, parts, 12)
	if got := a.makespan(); got != 6 {
		t.Fatalf("makespan = %v, want 6", got)
	}
}

func TestAssignExhaustiveFallsBackWhenLarge(t *testing.T) {
	parts := mkParts("p", 20)
	a := assignExhaustive([]string{"n0", "n1"}, parts, 12)
	total := 0
	for _, ps := range a {
		total += len(ps)
	}
	if total != 20 {
		t.Fatalf("fallback lost partitions: %d", total)
	}
}

func TestPartitionsPerNodeCap(t *testing.T) {
	if got := PartitionsPerNodeCap(8, 2); got != 4 {
		t.Fatalf("cap(8,2) = %d", got)
	}
	if got := PartitionsPerNodeCap(7, 2); got != 4 {
		t.Fatalf("cap(7,2) = %d", got)
	}
	if got := PartitionsPerNodeCap(5, 0); got != 5 {
		t.Fatalf("cap(5,0) = %d", got)
	}
}

func TestComputeOutputFirstTime(t *testing.T) {
	current := []NodeState{
		{Node: "rs0", Type: ReadWrite, Partitions: []string{"a", "b"}},
		{Node: "rs1", Type: ReadWrite, Partitions: []string{"c"}},
	}
	optimal := []TargetSet{
		{Type: Read, Partitions: []string{"a", "c"}},
		{Type: Write, Partitions: []string{"b"}},
	}
	got := ComputeOutput(current, optimal, true)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Type != Read || got[1].Type != Write {
		t.Fatalf("first-time mapping = %v", got)
	}
}

func TestComputeOutputMatchesSimilarSets(t *testing.T) {
	// rs0 already holds {a,b}; the optimal set {a,b} must be matched to
	// rs0 (zero moves), not to rs1.
	current := []NodeState{
		{Node: "rs0", Type: Read, Partitions: []string{"a", "b"}},
		{Node: "rs1", Type: Write, Partitions: []string{"c", "d"}},
	}
	optimal := []TargetSet{
		{Type: Write, Partitions: []string{"c", "d"}},
		{Type: Read, Partitions: []string{"a", "b"}},
	}
	got := ComputeOutput(current, optimal, false)
	d := computeDiff(current, got)
	if d.PartitionMoves != 0 {
		t.Fatalf("moves = %d, want 0 (got %v)", d.PartitionMoves, got)
	}
	if d.Reconfigs != 0 {
		t.Fatalf("reconfigs = %d, want 0", d.Reconfigs)
	}
}

func TestComputeOutputMinimizesMoves(t *testing.T) {
	current := []NodeState{
		{Node: "rs0", Type: Read, Partitions: []string{"a", "b", "c"}},
		{Node: "rs1", Type: Read, Partitions: []string{"d", "e", "f"}},
	}
	// Optimal swaps one partition between the sets.
	optimal := []TargetSet{
		{Type: Read, Partitions: []string{"a", "b", "f"}},
		{Type: Read, Partitions: []string{"d", "e", "c"}},
	}
	got := ComputeOutput(current, optimal, false)
	d := computeDiff(current, got)
	if d.PartitionMoves != 2 {
		t.Fatalf("moves = %d, want 2 (got %v)", d.PartitionMoves, got)
	}
}

func TestComputeOutputNewNodeGetsLeftoverSet(t *testing.T) {
	current := []NodeState{
		{Node: "rs0", Type: Read, Partitions: []string{"a", "b"}},
		{Node: "rs1", Type: ReadWrite, Partitions: nil}, // freshly added
	}
	optimal := []TargetSet{
		{Type: Read, Partitions: []string{"a", "b"}},
		{Type: Scan, Partitions: []string{"s1", "s2"}},
	}
	got := ComputeOutput(current, optimal, false)
	var rs1 NodeState
	for _, n := range got {
		if n.Node == "rs1" {
			rs1 = n
		}
	}
	if rs1.Type != Scan || len(rs1.Partitions) != 2 {
		t.Fatalf("new node got %v", rs1)
	}
}

func TestComputeOutputShrinkingCluster(t *testing.T) {
	// 3 nodes down to 2 sets: one node ends up empty (to be removed).
	current := []NodeState{
		{Node: "rs0", Type: Read, Partitions: []string{"a"}},
		{Node: "rs1", Type: Read, Partitions: []string{"b"}},
		{Node: "rs2", Type: Read, Partitions: []string{"c"}},
	}
	optimal := []TargetSet{
		{Type: Read, Partitions: []string{"a", "c"}},
		{Type: Read, Partitions: []string{"b"}},
	}
	got := ComputeOutput(current, optimal, false)
	empty := 0
	total := 0
	for _, n := range got {
		total += len(n.Partitions)
		if len(n.Partitions) == 0 {
			empty++
		}
	}
	if empty != 1 || total != 3 {
		t.Fatalf("shrink output = %v", got)
	}
}

func TestComputeDiffReconfigs(t *testing.T) {
	current := []NodeState{{Node: "rs0", Type: Read, Partitions: []string{"a"}}}
	target := []NodeState{{Node: "rs0", Type: Write, Partitions: []string{"a"}}}
	d := computeDiff(current, target)
	if d.Reconfigs != 1 || d.PartitionMoves != 0 {
		t.Fatalf("diff = %+v", d)
	}
	// A brand-new node counts as a reconfig (it must be configured).
	target = append(target, NodeState{Node: "rs9", Type: Read, Partitions: []string{"z"}})
	d = computeDiff(current, target)
	if d.Reconfigs != 2 || d.PartitionMoves != 1 {
		t.Fatalf("diff = %+v", d)
	}
}

// Property: ComputeOutput never loses or duplicates partitions relative
// to the optimal distribution.
func TestComputeOutputConservesPartitions(t *testing.T) {
	err := quick.Check(func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		nNodes := 2 + rng.Intn(4)
		var current []NodeState
		var optimal []TargetSet
		pid := 0
		for i := 0; i < nNodes; i++ {
			var cur []string
			for j := 0; j < rng.Intn(4); j++ {
				cur = append(cur, fmt.Sprintf("p%d", pid))
				pid++
			}
			current = append(current, NodeState{Node: fmt.Sprintf("rs%d", i), Type: AccessTypes[rng.Intn(4)], Partitions: cur})
		}
		// Optimal redistributes the same partitions randomly.
		var all []string
		for _, n := range current {
			all = append(all, n.Partitions...)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		per := len(all)/nNodes + 1
		for i := 0; i < nNodes && len(all) > 0; i++ {
			take := per
			if take > len(all) {
				take = len(all)
			}
			optimal = append(optimal, TargetSet{Type: AccessTypes[rng.Intn(4)], Partitions: all[:take]})
			all = all[take:]
		}
		got := ComputeOutput(current, optimal, false)
		seen := map[string]int{}
		for _, n := range got {
			for _, p := range n.Partitions {
				seen[p]++
			}
		}
		want := map[string]int{}
		for _, s := range optimal {
			for _, p := range s.Partitions {
				want[p]++
			}
		}
		if len(seen) != len(want) {
			return false
		}
		for p, c := range want {
			if seen[p] != c {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
