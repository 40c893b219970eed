package core

import (
	"sort"

	"met/internal/metrics"
	"met/internal/placement"
	"met/internal/sim"
)

// Monitor is MeT's monitoring component: it polls a metrics.Source (the
// Ganglia + JMX stand-in) every interval, smooths system metrics with
// exponential smoothing, accumulates per-partition request deltas since
// the last actuation, and digests everything into the ClusterView the
// Decision Maker consumes.
type Monitor struct {
	collector *metrics.Collector
	// nodeTypes tracks the profile each node currently runs, which the
	// Decision Maker needs to minimize reconfigurations.
	nodeTypes map[string]placement.AccessType

	// accumulated request deltas per partition since last Reset.
	partitionReqs map[string]metrics.RequestCounts
	partitionPrev map[string]metrics.RequestCounts
	partitionNode map[string]string
	partitionSize map[string]float64
	lastLocality  map[string]float64
}

// NewMonitor builds a monitor over src with smoothing factor alpha
// (0.5 unless the deployment overrides it).
func NewMonitor(src metrics.Source, alpha float64) *Monitor {
	return &Monitor{
		collector:     metrics.NewCollector(src, alpha),
		nodeTypes:     make(map[string]placement.AccessType),
		partitionReqs: make(map[string]metrics.RequestCounts),
		partitionPrev: make(map[string]metrics.RequestCounts),
		partitionNode: make(map[string]string),
		partitionSize: make(map[string]float64),
		lastLocality:  make(map[string]float64),
	}
}

// SetNodeType records the profile a node is running (the Actuator calls
// this after reconfiguring).
func (m *Monitor) SetNodeType(node string, t placement.AccessType) {
	m.nodeTypes[node] = t
}

// NodeType returns the recorded profile for a node (ReadWrite default).
func (m *Monitor) NodeType(node string) placement.AccessType {
	return m.nodeTypes[node]
}

// Poll takes one sample. Call every 30 (virtual) seconds.
func (m *Monitor) Poll(now sim.Time) {
	nodes, regions := m.collector.Poll(now)
	for _, n := range nodes {
		m.lastLocality[n.Node] = n.Locality
	}
	for _, r := range regions {
		// Region observations carry deltas when the source computes
		// them, but cumulative counters are also supported: detect by
		// monotonicity against the previous cumulative value.
		prev := m.partitionPrev[r.Region]
		delta := r.Requests
		if r.Requests.Reads >= prev.Reads && r.Requests.Writes >= prev.Writes &&
			r.Requests.Scans >= prev.Scans && prev.Total() > 0 {
			delta = r.Requests.Sub(prev)
		}
		m.partitionPrev[r.Region] = r.Requests
		m.partitionReqs[r.Region] = m.partitionReqs[r.Region].Add(delta)
		m.partitionNode[r.Region] = r.Node
		m.partitionSize[r.Region] = r.SizeMB
	}
}

// Samples returns how many polls accumulated since the last Reset.
func (m *Monitor) Samples() int { return m.collector.Observations() }

// Reset drops accumulated state; the controller calls this after every
// actuation, per the paper.
func (m *Monitor) Reset() {
	m.collector.Reset()
	m.partitionReqs = make(map[string]metrics.RequestCounts)
}

// View digests the current state for the Decision Maker.
func (m *Monitor) View() ClusterView {
	var view ClusterView
	cpu := m.collector.SmoothedCPU()
	io := m.collector.SmoothedIOWait()
	mem := m.collector.SmoothedMemory()
	for _, name := range m.collector.Nodes() {
		view.Nodes = append(view.Nodes, NodeView{
			Name:     name,
			Type:     m.nodeTypes[name],
			CPU:      cpu[name],
			IOWait:   io[name],
			Memory:   mem[name],
			Locality: m.lastLocality[name],
		})
	}
	var parts []string
	for p := range m.partitionNode {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		view.Partitions = append(view.Partitions, PartitionView{
			Name:     p,
			Node:     m.partitionNode[p],
			Requests: m.partitionReqs[p],
			SizeMB:   m.partitionSize[p],
		})
	}
	return view
}
