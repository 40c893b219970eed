package core

import (
	"fmt"
	"sort"

	"met/internal/hbase"
	"met/internal/placement"
)

// Actuator carries out the Decision Maker's output on a concrete
// deployment (Section 4.3).
type Actuator interface {
	// ProvisionNames returns names the Decision Maker may use for new
	// nodes (e.g. the IaaS namespace). At least n names are returned
	// when possible.
	ProvisionNames(n int) []string
	// Apply brings the cluster to the target distribution: add nodes
	// named in the target that do not exist, reconfigure and re-place
	// incrementally, remove nodes left empty, and issue major compacts
	// where locality demands. It returns an actuation report.
	Apply(target []placement.NodeState) (ApplyReport, error)
	// Busy reports whether an earlier Apply is still unfolding (an
	// asynchronous actuator returns from Apply with the plan scheduled);
	// the Controller takes no decision until it has finished.
	Busy() bool
}

// ApplyReport summarizes what an actuation did; the controller logs it
// and the evaluation uses it to charge reconfiguration costs.
type ApplyReport struct {
	NodesAdded     []string
	NodesRemoved   []string
	Reconfigured   []string
	RegionMoves    int
	MajorCompacts  int
	CompactedBytes int64
}

// FunctionalActuator drives the functional hbase cluster: the real
// region moves, rolling restarts and major compactions of Section 5's
// "Taking actions". It reconfigures servers one at a time, draining each
// server's regions to the not-yet-reconfigured nodes first so data stays
// available throughout — the paper's incremental strategy.
type FunctionalActuator struct {
	Master   *hbase.Master
	Monitor  *Monitor
	Params   Params
	Profiles Profiles
	// nameSeq mints names for added nodes.
	nameSeq int
}

// NewFunctionalActuator wires an actuator to a running cluster.
func NewFunctionalActuator(m *hbase.Master, mon *Monitor, params Params, profiles Profiles) *FunctionalActuator {
	return &FunctionalActuator{Master: m, Monitor: mon, Params: params, Profiles: profiles}
}

// ProvisionNames implements Actuator.
func (a *FunctionalActuator) ProvisionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rs-met-%03d", a.nameSeq+i)
	}
	return names
}

// Busy implements Actuator: Apply runs the whole plan before returning.
func (a *FunctionalActuator) Busy() bool { return false }

// Apply implements Actuator.
func (a *FunctionalActuator) Apply(target []placement.NodeState) (ApplyReport, error) {
	var rep ApplyReport
	existing := make(map[string]*hbase.RegionServer)
	for _, rs := range a.Master.Servers() {
		existing[rs.Name()] = rs
	}

	// 1. Add nodes present in the target but not in the cluster.
	for _, ns := range target {
		if _, ok := existing[ns.Node]; ok {
			continue
		}
		cfg := a.Profiles[ns.Type]
		rs, err := a.Master.AddServer(ns.Node, cfg)
		if err != nil {
			return rep, fmt.Errorf("core: add node %s: %w", ns.Node, err)
		}
		existing[ns.Node] = rs
		a.Monitor.SetNodeType(ns.Node, ns.Type)
		rep.NodesAdded = append(rep.NodesAdded, ns.Node)
		a.nameSeq++
	}

	// 2. Reconfigure + re-place, one server at a time. Order servers so
	// the ones whose profile already matches go last (they may not need
	// a restart at all).
	ordered := append([]placement.NodeState(nil), target...)
	sort.SliceStable(ordered, func(i, j int) bool {
		ci := a.Monitor.NodeType(ordered[i].Node) != ordered[i].Type
		cj := a.Monitor.NodeType(ordered[j].Node) != ordered[j].Type
		if ci != cj {
			return ci
		}
		return ordered[i].Node < ordered[j].Node
	})
	targetHost := make(map[string]string)
	for _, ns := range target {
		for _, p := range ns.Partitions {
			targetHost[p] = ns.Node
		}
	}
	for _, ns := range ordered {
		rs, ok := existing[ns.Node]
		if !ok {
			continue
		}
		wantCfg := a.Profiles[ns.Type]
		// Profiles carry only the paper's tuning knobs; the storage
		// backend and the compaction subsystem are deployment properties
		// of the server, so a durable server stays durable — and keeps
		// its compaction policy, budget and thresholds — across
		// reprofiles.
		wantCfg.DataDir = rs.Config().DataDir
		wantCfg.Compaction = rs.Config().Compaction
		if !rs.Config().Equal(wantCfg) {
			// Drain: move hosted regions to their target hosts if those
			// hosts are up, otherwise to any other server, so data
			// stays available during the restart.
			for _, r := range rs.Regions() {
				dst := targetHost[r.Name()]
				if dst == "" || dst == ns.Node {
					dst = a.anyOtherServer(ns.Node)
				}
				if dst != "" && dst != ns.Node {
					if err := a.Master.MoveRegion(r.Name(), dst); err != nil {
						return rep, err
					}
					rep.RegionMoves++
				}
			}
			// Through the master, so a durable cluster's catalog records
			// the new profile and a cold start re-creates the server as
			// reprofiled.
			if err := a.Master.RestartServer(ns.Node, wantCfg); err != nil {
				return rep, err
			}
			a.Monitor.SetNodeType(ns.Node, ns.Type)
			rep.Reconfigured = append(rep.Reconfigured, ns.Node)
		}
	}

	// 3. Final placement: move every partition to its target node.
	for _, ns := range target {
		for _, p := range ns.Partitions {
			host, ok := a.Master.HostOf(p)
			if !ok {
				continue
			}
			if host != ns.Node {
				if err := a.Master.MoveRegion(p, ns.Node); err != nil {
					return rep, err
				}
				rep.RegionMoves++
			}
		}
	}

	// 4. Remove nodes with no partitions in the target.
	inTarget := make(map[string]bool)
	for _, ns := range target {
		inTarget[ns.Node] = len(ns.Partitions) > 0 || inTarget[ns.Node]
	}
	for name := range existing {
		keep, mentioned := inTarget[name]
		if mentioned && !keep {
			if err := a.Master.DecommissionServer(name); err != nil {
				return rep, err
			}
			rep.NodesRemoved = append(rep.NodesRemoved, name)
		}
	}

	// 5. Major-compact servers whose locality fell below the profile's
	// threshold (70% write / 90% others).
	for _, ns := range target {
		rs, err := a.Master.Server(ns.Node)
		if err != nil {
			continue // removed above
		}
		threshold := a.Params.LocalityReadThreshold
		if ns.Type == placement.Write {
			threshold = a.Params.LocalityWriteThreshold
		}
		if rs.Locality() < threshold {
			for _, r := range rs.Regions() {
				n, err := rs.MajorCompact(r.Name())
				if err != nil {
					return rep, err
				}
				rep.MajorCompacts++
				rep.CompactedBytes += n
			}
		}
	}
	return rep, nil
}

// anyOtherServer picks a running server other than exclude.
func (a *FunctionalActuator) anyOtherServer(exclude string) string {
	for _, rs := range a.Master.Servers() {
		if rs.Name() != exclude && rs.Running() {
			return rs.Name()
		}
	}
	return ""
}
