package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"met/internal/hbase"
	"met/internal/placement"
)

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

// Changed reports whether the plan did anything to the cluster.
func (r ApplyReport) Changed() bool {
	return len(r.NodesAdded)+len(r.NodesRemoved)+len(r.Reconfigured)+r.RegionMoves+r.MajorCompacts > 0
}

// Actuator carries out the Decision Maker's output on a Cluster — the
// plan of Section 4.3: add the target's new nodes; reconfigure, one at
// a time in name order, every node that keeps partitions and whose
// config differs from its profile, draining it first so its data stays
// available; move every partition to its target; major-compact the
// regions that carry traffic and whose locality fell below 70% (write
// profile) or 90% (others); remove the nodes the target left empty.
//
// One error rule holds on every cluster: a step that fails is skipped
// and left out of the report, the plan goes on, and the plan's error
// joins every failure.
type Actuator struct {
	Cluster  Cluster
	Monitor  *Monitor
	Params   Params
	Profiles Profiles
	// OnStart and OnDone, when set, observe each plan as it starts and
	// as it completes, with its report and error.
	OnStart func()
	OnDone  func(ApplyReport, error)

	plan    *plan // in flight; nil when idle
	nameSeq int   // mints names for added nodes
	err     error // the last completed plan's
	changed int   // completed plans that changed something
}

// plan is one actuation in flight.
type plan struct {
	target  []placement.NodeState
	host    map[string]string // partition -> target node
	restart []placement.NodeState
	cfg     map[string]hbase.ServerConfig // each restart's config
	remove  []string
	booting int // added nodes not serving yet
	rep     ApplyReport
	errs    []error
}

// NewActuator wires an actuator to a cluster.
func NewActuator(c Cluster, mon *Monitor, params Params, profiles Profiles) *Actuator {
	return &Actuator{Cluster: c, Monitor: mon, Params: params, Profiles: profiles}
}

// ProvisionNames returns n names the Decision Maker may use for new
// nodes.
func (a *Actuator) ProvisionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rs-met-%03d", a.nameSeq+i)
	}
	return names
}

// Busy reports whether a plan is in flight; the Controller takes no
// decision until it has completed.
func (a *Actuator) Busy() bool { return a.plan != nil }

// Err returns the last completed plan's error.
func (a *Actuator) Err() error { return a.err }

// Apply starts the plan that brings the cluster to target; while a plan
// is in flight it does nothing. It returns what the plan has done by
// the time Apply returns — all of it, with the plan's error, when the
// cluster's adds and restarts complete before they return.
func (a *Actuator) Apply(target []placement.NodeState) (ApplyReport, error) {
	if a.plan != nil {
		return ApplyReport{}, nil
	}
	p := &plan{target: target, host: make(map[string]string), cfg: make(map[string]hbase.ServerConfig)}
	a.plan = p
	if a.OnStart != nil {
		a.OnStart()
	}
	members := make(map[string]Member)
	base := hbase.DefaultServerConfig() // a new node's machine: a member's, if there is one
	for _, m := range a.Cluster.Members() {
		members[m.Name] = m
		base = m.Config
	}
	var adds []placement.NodeState
	for _, ns := range target {
		for _, part := range ns.Partitions {
			p.host[part] = ns.Node
		}
		m, ok := members[ns.Node]
		switch {
		case !ok:
			adds = append(adds, ns)
		case len(ns.Partitions) == 0:
			p.remove = append(p.remove, ns.Node)
		default:
			if cfg := m.Config.WithProfile(a.Profiles[ns.Type]); cfg != m.Config {
				p.restart = append(p.restart, ns)
				p.cfg[ns.Node] = cfg
			}
		}
	}
	sort.Slice(p.restart, func(i, j int) bool { return p.restart[i].Node < p.restart[j].Node })
	a.nameSeq += len(adds)
	p.booting = len(adds)
	// The last add to settle starts the restarts.
	booted := func() {
		if p.booting--; p.booting == 0 {
			a.restartFrom(p, 0)
		}
	}
	if p.booting == 0 {
		a.restartFrom(p, 0)
	}
	for _, ns := range adds {
		err := a.Cluster.AddNode(ns.Node, base.WithProfile(a.Profiles[ns.Type]), func() {
			a.Monitor.SetNodeType(ns.Node, ns.Type)
			p.rep.NodesAdded = append(p.rep.NodesAdded, ns.Node)
			booted()
		})
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("core: add node %s: %w", ns.Node, err))
			booted()
		}
	}
	if a.plan == p {
		return p.rep, nil
	}
	return p.rep, a.err
}

// restartFrom drains and restarts p.restart[i], then — once it serves
// again — the next one; after the last it finishes the plan.
func (a *Actuator) restartFrom(p *plan, i int) {
	if i == len(p.restart) {
		a.finish(p)
		return
	}
	ns := p.restart[i]
	a.drain(p, ns.Node)
	err := a.Cluster.RestartNode(ns.Node, p.cfg[ns.Node], func() {
		a.Monitor.SetNodeType(ns.Node, ns.Type)
		p.rep.Reconfigured = append(p.rep.Reconfigured, ns.Node)
		a.restartFrom(p, i+1)
	})
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("core: restart %s: %w", ns.Node, err))
		a.restartFrom(p, i+1)
	}
}

// drain moves every region off node before its restart: to the
// region's target host if that one serves, otherwise to the serving
// node with the fewest regions, so drains spread instead of piling up.
func (a *Actuator) drain(p *plan, node string) {
	serving := make(map[string]bool)
	for _, m := range a.Cluster.Members() {
		serving[m.Name] = m.Serving && m.Name != node
	}
	assign := a.Cluster.Assignment()
	count := make(map[string]int)
	for _, host := range assign {
		count[host]++
	}
	for _, r := range slices.Sorted(maps.Keys(assign)) {
		if assign[r] != node {
			continue
		}
		dst := p.host[r]
		if !serving[dst] {
			dst = ""
			for _, n := range slices.Sorted(maps.Keys(serving)) {
				if serving[n] && (dst == "" || count[n] < count[dst]) {
					dst = n
				}
			}
		}
		if dst != "" && a.move(p, r, dst) == nil {
			count[node]--
			count[dst]++
		}
	}
}

// move moves one region and counts it.
func (a *Actuator) move(p *plan, region, node string) error {
	err := a.Cluster.MoveRegion(region, node)
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("core: move %s to %s: %w", region, node, err))
	} else {
		p.rep.RegionMoves++
	}
	return err
}

// finish places every partition on its target node, compacts where
// locality demands, removes the emptied nodes and ends the plan.
func (a *Actuator) finish(p *plan) {
	assign := a.Cluster.Assignment()
	for _, ns := range p.target {
		for _, part := range ns.Partitions {
			if host, ok := assign[part]; ok && host != ns.Node && a.move(p, part, ns.Node) == nil {
				assign[part] = ns.Node
			}
		}
	}
	for _, ns := range p.target {
		threshold := a.Params.LocalityReadThreshold
		if ns.Type == placement.Write {
			threshold = a.Params.LocalityWriteThreshold
		}
		for _, part := range ns.Partitions {
			if assign[part] != ns.Node {
				continue
			}
			if index, active := a.Cluster.Locality(part); !active || index >= threshold {
				continue
			}
			n, err := a.Cluster.MajorCompact(part)
			if err != nil {
				p.errs = append(p.errs, fmt.Errorf("core: major compact %s: %w", part, err))
				continue
			}
			p.rep.MajorCompacts++
			p.rep.CompactedBytes += n
		}
	}
	hosting := make(map[string]int)
	for _, host := range assign {
		hosting[host]++
	}
	for _, n := range p.remove {
		err := fmt.Errorf("still hosts %d regions", hosting[n])
		if hosting[n] == 0 {
			err = a.Cluster.RemoveNode(n)
		}
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("core: remove node %s: %w", n, err))
			continue
		}
		p.rep.NodesRemoved = append(p.rep.NodesRemoved, n)
	}
	a.plan, a.err = nil, errors.Join(p.errs...)
	if p.rep.Changed() {
		a.changed++
	}
	if a.OnDone != nil {
		a.OnDone(p.rep, a.err)
	}
}
