package core

import (
	"maps"
	"slices"

	"met/internal/metrics"
	"met/internal/placement"
)

// alpha is the weight the Monitor's smoothing gives the newest sample
// (see metrics.Smoother).
const alpha = 0.5

// Monitor is MeT's monitoring component: it polls a Cluster (the
// Ganglia + JMX stand-in) every SamplePeriod, smooths each node's system
// metrics with Brown's exponential smoothing, accumulates per-partition
// requests since the last Reset, and digests everything into the
// ClusterView the Decision Maker consumes.
type Monitor struct {
	cluster Cluster
	// nodeTypes tracks the profile each node currently runs, which the
	// Decision Maker needs to minimize reconfigurations.
	nodeTypes map[string]placement.AccessType

	nodes   map[string]*nodeMetrics
	samples int // polls since the last Reset

	// partitionReqs accumulates requests per partition since the last
	// Reset; partitionPrev is each partition's last cumulative counter.
	partitionReqs map[string]metrics.RequestCounts
	partitionPrev map[string]metrics.RequestCounts
	partitionNode map[string]string
}

// nodeMetrics is one node's smoothed system metrics.
type nodeMetrics struct{ cpu, io, mem *metrics.Smoother }

// NewMonitor builds a monitor that polls c.
func NewMonitor(c Cluster) *Monitor {
	return &Monitor{
		cluster:       c,
		nodeTypes:     make(map[string]placement.AccessType),
		nodes:         make(map[string]*nodeMetrics),
		partitionReqs: make(map[string]metrics.RequestCounts),
		partitionPrev: make(map[string]metrics.RequestCounts),
		partitionNode: make(map[string]string),
	}
}

// SetNodeType records the profile a node is running (the Actuator calls
// this after reconfiguring).
func (m *Monitor) SetNodeType(node string, t placement.AccessType) {
	m.nodeTypes[node] = t
}

// Poll takes one sample of the cluster. A node the sample leaves out
// has left the cluster or is down: its smoothed metrics are dropped, so
// the view lists only the nodes of the latest sample.
func (m *Monitor) Poll() {
	nodes, regions := m.cluster.Observe()
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		seen[n.Node] = true
		s := m.nodes[n.Node]
		if s == nil {
			s = &nodeMetrics{metrics.NewSmoother(alpha), metrics.NewSmoother(alpha), metrics.NewSmoother(alpha)}
			m.nodes[n.Node] = s
		}
		s.cpu.Observe(n.System.CPUUtilization)
		s.io.Observe(n.System.IOWait)
		s.mem.Observe(n.System.MemoryUsage)
	}
	maps.DeleteFunc(m.nodes, func(name string, _ *nodeMetrics) bool { return !seen[name] })
	for _, r := range regions {
		// Counters are cumulative (see RegionObservation): one that
		// rose contributes the difference, one seen for the first time
		// or that fell because it restarted contributes its value.
		prev := m.partitionPrev[r.Region]
		delta := r.Requests
		if r.Requests.Reads >= prev.Reads && r.Requests.Writes >= prev.Writes && r.Requests.Scans >= prev.Scans {
			delta = r.Requests.Sub(prev)
		}
		m.partitionPrev[r.Region] = r.Requests
		m.partitionReqs[r.Region] = m.partitionReqs[r.Region].Add(delta)
		m.partitionNode[r.Region] = r.Node
	}
	m.samples++
}

// Samples returns how many polls accumulated since the last Reset.
func (m *Monitor) Samples() int { return m.samples }

// Reset drops the smoothed metrics and the accumulated requests; the
// controller calls this after every decision, per the paper ("storing
// only the observations after each Actuator's action").
func (m *Monitor) Reset() {
	clear(m.nodes)
	m.samples = 0
	m.partitionReqs = make(map[string]metrics.RequestCounts)
}

// View digests the current state for the Decision Maker.
func (m *Monitor) View() ClusterView {
	var view ClusterView
	for _, name := range slices.Sorted(maps.Keys(m.nodes)) {
		s := m.nodes[name]
		view.Nodes = append(view.Nodes, NodeView{
			Name:   name,
			Type:   m.nodeTypes[name],
			CPU:    s.cpu.Value(),
			IOWait: s.io.Value(),
			Memory: s.mem.Value(),
		})
	}
	for _, p := range slices.Sorted(maps.Keys(m.partitionNode)) {
		view.Partitions = append(view.Partitions, PartitionView{
			Name:     p,
			Node:     m.partitionNode[p],
			Requests: m.partitionReqs[p],
		})
	}
	return view
}
