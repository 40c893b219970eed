package metrics

import (
	"sort"

	"met/internal/sim"
)

// SystemMetrics are the Ganglia-level metrics MeT monitors per node.
// Simulated clusters synthesize the three fractions; a durable cluster
// derives MemoryUsage from the process's real runtime sample.
type SystemMetrics struct {
	CPUUtilization float64 // fraction of CPU busy, 0..1
	IOWait         float64 // fraction of time waiting on disk, 0..1
	MemoryUsage    float64 // fraction of memory in use, 0..1
}

// RequestCounts are cumulative operation counters, per node or per region,
// matching the JMX metrics the paper collects (the scan counter is the
// one the authors added to HBase themselves).
type RequestCounts struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Scans  int64 `json:"scans"`
}

// Total returns the total number of requests.
func (c RequestCounts) Total() int64 { return c.Reads + c.Writes + c.Scans }

// Add returns the element-wise sum of two counters.
func (c RequestCounts) Add(o RequestCounts) RequestCounts {
	return RequestCounts{Reads: c.Reads + o.Reads, Writes: c.Writes + o.Writes, Scans: c.Scans + o.Scans}
}

// Sub returns the element-wise difference c - o, useful for converting
// cumulative counters into per-interval deltas.
func (c RequestCounts) Sub(o RequestCounts) RequestCounts {
	return RequestCounts{Reads: c.Reads - o.Reads, Writes: c.Writes - o.Writes, Scans: c.Scans - o.Scans}
}

// NodeObservation is one monitoring sample for one node.
type NodeObservation struct {
	At       sim.Time
	Node     string
	System   SystemMetrics
	Requests RequestCounts // delta over the sampling interval
	Locality float64       // fraction of served data stored locally, 0..1
}

// RegionObservation is one monitoring sample for one data partition.
type RegionObservation struct {
	At       sim.Time
	Region   string
	Node     string
	Requests RequestCounts // delta over the sampling interval
	SizeMB   float64
}

// Source is anything the collector can poll: the simulated cluster
// implements this to expose its current state.
type Source interface {
	// Observe returns the current per-node and per-region samples.
	Observe(now sim.Time) ([]NodeObservation, []RegionObservation)
}

// Collector polls a Source on a fixed interval and maintains smoothed
// per-node system metrics plus windows of raw observations. It is the
// concrete Monitor backend.
type Collector struct {
	source Source
	alpha  float64

	nodeCPU      map[string]*Smoother
	nodeIO       map[string]*Smoother
	nodeMem      map[string]*Smoother
	lastNodes    []NodeObservation
	lastRegions  []RegionObservation
	observations int
}

// NewCollector creates a collector over src with smoothing factor alpha.
func NewCollector(src Source, alpha float64) *Collector {
	return &Collector{
		source:  src,
		alpha:   alpha,
		nodeCPU: make(map[string]*Smoother),
		nodeIO:  make(map[string]*Smoother),
		nodeMem: make(map[string]*Smoother),
	}
}

// Poll takes one sample from the source and folds it into the smoothed
// state. It returns the raw observations for callers that keep history.
func (c *Collector) Poll(now sim.Time) ([]NodeObservation, []RegionObservation) {
	nodes, regions := c.source.Observe(now)
	for _, n := range nodes {
		c.smoother(c.nodeCPU, n.Node).Observe(n.System.CPUUtilization)
		c.smoother(c.nodeIO, n.Node).Observe(n.System.IOWait)
		c.smoother(c.nodeMem, n.Node).Observe(n.System.MemoryUsage)
	}
	c.lastNodes = nodes
	c.lastRegions = regions
	c.observations++
	return nodes, regions
}

func (c *Collector) smoother(m map[string]*Smoother, node string) *Smoother {
	s, ok := m[node]
	if !ok {
		s = NewSmoother(c.alpha)
		m[node] = s
	}
	return s
}

// Observations returns the number of polls since the last Reset.
func (c *Collector) Observations() int { return c.observations }

// Reset drops all smoothed state; called after every actuation, per the
// paper ("storing only the observations after each Actuator's action").
func (c *Collector) Reset() {
	for _, s := range c.nodeCPU {
		s.Reset()
	}
	for _, s := range c.nodeIO {
		s.Reset()
	}
	for _, s := range c.nodeMem {
		s.Reset()
	}
	c.observations = 0
}

// SmoothedCPU returns the smoothed CPU utilization per node.
func (c *Collector) SmoothedCPU() map[string]float64 { return smoothedValues(c.nodeCPU) }

// SmoothedIOWait returns the smoothed I/O wait per node.
func (c *Collector) SmoothedIOWait() map[string]float64 { return smoothedValues(c.nodeIO) }

// SmoothedMemory returns the smoothed memory usage per node.
func (c *Collector) SmoothedMemory() map[string]float64 { return smoothedValues(c.nodeMem) }

func smoothedValues(m map[string]*Smoother) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, s := range m {
		if s.Count() > 0 {
			out[k] = s.Value()
		}
	}
	return out
}

// LastNodes returns the most recent raw node observations.
func (c *Collector) LastNodes() []NodeObservation { return c.lastNodes }

// LastRegions returns the most recent raw region observations.
func (c *Collector) LastRegions() []RegionObservation { return c.lastRegions }

// Nodes returns the sorted set of node names seen so far.
func (c *Collector) Nodes() []string {
	names := make([]string, 0, len(c.nodeCPU))
	for k := range c.nodeCPU {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
