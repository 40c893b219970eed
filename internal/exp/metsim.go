package exp

import (
	"fmt"
	"sort"

	"met/internal/core"
	"met/internal/iaas"
	"met/internal/placement"
	"met/internal/sim"
)

// SimActuator implements core.Actuator against the simulated Deployment,
// with real actuation dynamics: IaaS boot delays for added nodes, one-at-
// a-time drain + restart for reconfigurations (data stays available but
// the restarting server is gone for RestartDuration), final placement
// moves, node removals, and major compactions — each unfolding on the
// virtual clock. While a plan is in flight the actuator reports Busy and
// ignores further Apply calls, mirroring how the paper's 6-minute
// reconfigurations spanned several decision intervals.
type SimActuator struct {
	D        *Deployment
	Monitor  *core.Monitor
	Params   core.Params
	Profiles core.Profiles
	// Provider supplies VM boot delays; nil adds nodes instantly.
	Provider *iaas.Provider

	busy    bool
	nameSeq int
	// Reports accumulates one entry per completed actuation.
	Reports []core.ApplyReport
	// BusyWindows records each actuation's [start, end] on the virtual
	// clock (the observable reconfiguration windows of Figure 4).
	BusyWindows [][2]sim.Time
}

// NewSimActuator wires an actuator to the deployment.
func NewSimActuator(d *Deployment, mon *core.Monitor, params core.Params, profiles core.Profiles, prov *iaas.Provider) *SimActuator {
	return &SimActuator{D: d, Monitor: mon, Params: params, Profiles: profiles, Provider: prov}
}

// Busy implements core.Actuator: an actuation plan is still unfolding.
func (a *SimActuator) Busy() bool { return a.busy }

// ProvisionNames implements core.Actuator.
func (a *SimActuator) ProvisionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rs-met-%03d", a.nameSeq+i)
	}
	return names
}

// Apply implements core.Actuator: it schedules the plan and returns
// immediately; the report reflects the *planned* actions.
func (a *SimActuator) Apply(target []placement.NodeState) (core.ApplyReport, error) {
	if a.busy {
		return core.ApplyReport{}, nil
	}
	a.busy = true
	a.BusyWindows = append(a.BusyWindows, [2]sim.Time{a.D.Sched.Now(), 0})
	var rep core.ApplyReport

	// Partition the plan.
	var toAdd []placement.NodeState
	var toReconfigure []placement.NodeState
	var toRemove []string
	for _, ns := range target {
		if _, ok := a.D.Model.Nodes[ns.Node]; !ok {
			toAdd = append(toAdd, ns)
			continue
		}
		if len(ns.Partitions) == 0 {
			toRemove = append(toRemove, ns.Node)
			continue
		}
		if !a.D.Model.Nodes[ns.Node].Config.Equal(a.Profiles[ns.Type]) {
			toReconfigure = append(toReconfigure, ns)
		}
	}
	sort.Slice(toReconfigure, func(i, j int) bool { return toReconfigure[i].Node < toReconfigure[j].Node })
	for _, ns := range toAdd {
		rep.NodesAdded = append(rep.NodesAdded, ns.Node)
		a.nameSeq++
	}
	for _, ns := range toReconfigure {
		rep.Reconfigured = append(rep.Reconfigured, ns.Node)
	}
	rep.NodesRemoved = append(rep.NodesRemoved, toRemove...)

	// Phase 1: boot new nodes, then reconfigure, then place, then
	// compact. Implemented as a chain of closures on the scheduler.
	pendingBoots := len(toAdd)
	var reconfigure func(i int)
	finish := func(now sim.Time) {
		moves := a.finalPlacement(target)
		rep.RegionMoves += moves
		compacts, bytes := a.compactLowLocality(target)
		rep.MajorCompacts = compacts
		rep.CompactedBytes = bytes
		a.removeEmpty(toRemove)
		a.Reports = append(a.Reports, rep)
		a.BusyWindows[len(a.BusyWindows)-1][1] = now
		a.busy = false
	}
	reconfigure = func(i int) {
		if i >= len(toReconfigure) {
			finish(a.D.Sched.Now())
			return
		}
		ns := toReconfigure[i]
		// Drain: move hosted regions to any online node (prefer the
		// region's target host) so data stays available.
		a.drain(ns.Node, target)
		rep.RegionMoves += 0 // drain moves counted inside drain via master-less model
		cfg := a.Profiles[ns.Type]
		nsType := ns.Type
		err := a.D.RestartNode(ns.Node, cfg, func(sim.Time) {
			a.Monitor.SetNodeType(ns.Node, nsType)
			reconfigure(i + 1)
		})
		if err != nil {
			// Node vanished mid-plan; skip it.
			reconfigure(i + 1)
		}
	}
	startReconfigs := func() { reconfigure(0) }

	if pendingBoots == 0 {
		startReconfigs()
	} else {
		for _, ns := range toAdd {
			ns := ns
			onReady := func() {
				a.D.AddNode(ns.Node, a.Profiles[ns.Type])
				a.Monitor.SetNodeType(ns.Node, ns.Type)
				pendingBoots--
				if pendingBoots == 0 {
					startReconfigs()
				}
			}
			if a.Provider == nil {
				onReady()
				continue
			}
			if _, err := a.Provider.Launch(ns.Node, "m1.medium", func(*iaas.Instance) { onReady() }); err != nil {
				// Quota or flavor trouble: degrade to instant add so the
				// plan still completes.
				onReady()
			}
		}
	}
	return rep, nil
}

// drain moves every region off node to its target host (or any online
// node) before a restart.
func (a *SimActuator) drain(node string, target []placement.NodeState) {
	targetHost := make(map[string]string)
	for _, ns := range target {
		for _, p := range ns.Partitions {
			targetHost[p] = ns.Node
		}
	}
	var hosted []string
	for r, host := range a.D.Model.Placement {
		if host == node {
			hosted = append(hosted, r)
		}
	}
	sort.Strings(hosted)
	for _, r := range hosted {
		dst := targetHost[r]
		if dst == node || dst == "" || !a.nodeOnline(dst) {
			dst = a.anyOnlineNode(node)
		}
		if dst != "" && dst != node {
			_ = a.D.MoveRegion(r, dst)
		}
	}
}

func (a *SimActuator) nodeOnline(name string) bool {
	n, ok := a.D.Model.Nodes[name]
	return ok && !n.Offline
}

// anyOnlineNode picks the online node (other than exclude) currently
// hosting the fewest regions, so drains spread instead of piling up.
func (a *SimActuator) anyOnlineNode(exclude string) string {
	counts := make(map[string]int)
	for _, host := range a.D.Model.Placement {
		counts[host]++
	}
	var names []string
	for n, node := range a.D.Model.Nodes {
		if n != exclude && !node.Offline {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	best := ""
	for _, n := range names {
		if best == "" || counts[n] < counts[best] {
			best = n
		}
	}
	return best
}

// finalPlacement moves every partition to its target node; returns the
// number of moves.
func (a *SimActuator) finalPlacement(target []placement.NodeState) int {
	moves := 0
	for _, ns := range target {
		if _, ok := a.D.Model.Nodes[ns.Node]; !ok {
			continue
		}
		for _, p := range ns.Partitions {
			if a.D.Model.Placement[p] != ns.Node {
				if a.D.MoveRegion(p, ns.Node) == nil {
					moves++
				}
			}
		}
	}
	return moves
}

// compactLowLocality issues major compactions for regions on nodes whose
// locality fell below the profile threshold (70% write / 90% others).
func (a *SimActuator) compactLowLocality(target []placement.NodeState) (int, int64) {
	compacts := 0
	var bytes int64
	for _, ns := range target {
		threshold := a.Params.LocalityReadThreshold
		if ns.Type == placement.Write {
			threshold = a.Params.LocalityWriteThreshold
		}
		for _, p := range ns.Partitions {
			reg, ok := a.D.Model.Regions[p]
			if !ok || a.D.Model.Placement[p] != ns.Node {
				continue
			}
			if !a.regionActive(p) {
				continue // nobody reads it; compaction would be waste
			}
			if reg.Locality < threshold {
				if a.D.MajorCompact(p, nil) == nil {
					compacts++
					bytes += int64(reg.SizeBytes)
				}
			}
		}
	}
	return compacts, bytes
}

// regionActive reports whether any active workload routes requests to
// the region.
func (a *SimActuator) regionActive(region string) bool {
	for _, w := range a.D.Model.Workloads {
		if w.Active && w.RegionShares[region] > 0 {
			return true
		}
	}
	return false
}

// removeEmpty drops nodes the target left without partitions.
func (a *SimActuator) removeEmpty(names []string) {
	for _, n := range names {
		stillHosting := false
		for _, host := range a.D.Model.Placement {
			if host == n {
				stillHosting = true
				break
			}
		}
		if !stillHosting {
			_ = a.D.RemoveNode(n)
		}
	}
}

// MeTRunner is the MeT control loop over a Deployment: the one
// core.Controller (Monitor polls every 30 s; after MinSamples the
// Decision Maker runs unless an actuation is still unfolding) wired to a
// SimActuator, which it also exposes for its reports and busy windows.
type MeTRunner struct {
	*core.Controller
	Sim *SimActuator
}

// NewMeTRunner assembles MeT over a deployment with the paper's
// parameters and Table 1 profiles.
func NewMeTRunner(d *Deployment, params core.Params, prov *iaas.Provider) *MeTRunner {
	mon := core.NewMonitor(d, 0.5)
	profiles := core.Table1Profiles()
	act := NewSimActuator(d, mon, params, profiles, prov)
	return &MeTRunner{
		Controller: core.NewController(mon, core.NewDecisionMaker(params, profiles), act),
		Sim:        act,
	}
}
