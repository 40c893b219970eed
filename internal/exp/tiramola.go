package exp

import (
	"fmt"
	"maps"
	"slices"

	"met/internal/autoscale"
	"met/internal/hbase"
	"met/internal/sim"
)

// TiramolaRunner drives the baseline autoscaler over a Deployment the way
// Section 6.4 describes: it watches system metrics only, adds a node when
// the average CPU is high (after a VM boot delay) and removes one only
// when every node is underutilized. Placement stays with the database's
// random balancer — after every membership change the regions are
// redistributed for even counts, destroying locality — and nodes are
// never reconfigured nor compacted. Added nodes serve after the
// deployment's BootDelay.
type TiramolaRunner struct {
	D          *Deployment
	Controller *autoscale.Tiramola
	RNG        *sim.RNG

	nameSeq int
	// Adds and Removes record the membership actions taken.
	Adds    []sim.Time
	Removes []sim.Time
}

// NewTiramolaRunner assembles the baseline over a deployment.
func NewTiramolaRunner(d *Deployment, params autoscale.Params, rng *sim.RNG) *TiramolaRunner {
	return &TiramolaRunner{
		D:          d,
		Controller: autoscale.NewTiramola(params),
		RNG:        rng,
	}
}

// Tick evaluates the thresholds against the latest modeled CPU.
func (t *TiramolaRunner) Tick() {
	sol := t.D.lastSolution
	cpus := make(map[string]float64)
	for _, name := range t.D.serving("") {
		// Tiramola watches system metrics; a node pegged on disk I/O is
		// as saturated as one pegged on CPU.
		cpus[name] = max(sol.NodeCPU[name], sol.NodeDisk[name])
	}
	switch t.Controller.Evaluate(cpus) {
	case autoscale.ActionAddNode:
		t.addNode()
	case autoscale.ActionRemoveNode:
		t.removeNode()
	}
}

func (t *TiramolaRunner) addNode() {
	name := fmt.Sprintf("rs-tira-%03d", t.nameSeq)
	t.nameSeq++
	_ = t.D.AddNode(name, hbase.DefaultServerConfig(), func() {
		t.rebalance()
		t.Adds = append(t.Adds, t.D.Sched.Now())
	})
}

func (t *TiramolaRunner) removeNode() {
	// Tiramola retracts the most recently added instance.
	names := slices.Sorted(maps.Keys(t.D.Model.Nodes))
	if len(names) <= 1 {
		return
	}
	victim := names[len(names)-1]
	// Its regions go back to the random balancer.
	for r, host := range t.D.Model.Placement {
		if host == victim {
			dst := t.randomOtherNode(victim)
			if dst != "" {
				_ = t.D.MoveRegion(r, dst)
			}
		}
	}
	if err := t.D.RemoveNode(victim); err == nil {
		t.Removes = append(t.Removes, t.D.Sched.Now())
		t.rebalance()
	}
}

func (t *TiramolaRunner) randomOtherNode(exclude string) string {
	names := t.D.serving(exclude)
	if len(names) == 0 {
		return ""
	}
	return names[t.RNG.Intn(len(names))]
}

// rebalance applies HBase's random balancer: even region counts, random
// identity, locality destroyed for every region that moves.
func (t *TiramolaRunner) rebalance() {
	nodes := t.D.serving("")
	if len(nodes) == 0 {
		return
	}
	regions := slices.Sorted(maps.Keys(t.D.Model.Placement))
	plan := (&hbase.RandomBalancer{RNG: t.RNG}).Assign(regions, nodes)
	for _, r := range regions {
		_ = t.D.MoveRegion(r, plan[r])
	}
}
