// Package metrics holds what MeT's Monitor observes: the Ganglia-level
// system metrics of a node (CPU utilization, I/O wait, memory usage) and
// the JMX-level read/write/scan request counters of a region, as one
// poll's NodeObservation and RegionObservation. Region servers count
// requests on the serving path with AtomicCounts.
//
// The package also provides Brown's simple exponential smoothing, which
// the paper uses to damp temporary load spikes before feeding samples to
// the Decision Maker, and the percentile summary Figure 1 reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
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

// NodeObservation is one poll's sample of one serving node.
type NodeObservation struct {
	Node   string
	System SystemMetrics
}

// RegionObservation is one poll's sample of one region.
//
// Requests is the region's cumulative counter since its host started
// counting, not a delta: the Monitor diffs consecutive polls. A counter
// that fell since the previous poll was restarted (the region reopened
// elsewhere), and the Monitor counts its new value whole.
type RegionObservation struct {
	Region   string
	Node     string
	Requests RequestCounts
}

// Percentile returns the p-th percentile (0..100) of vs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF summarises a set of observations at the percentile levels the
// paper's Figure 1 reports (5th, 25th, 50th, 75th, 90th).
type CDF struct {
	P5, P25, P50, P75, P90 float64
}

// NewCDF computes the Figure 1 percentile summary for vs.
func NewCDF(vs []float64) CDF {
	return CDF{
		P5:  Percentile(vs, 5),
		P25: Percentile(vs, 25),
		P50: Percentile(vs, 50),
		P75: Percentile(vs, 75),
		P90: Percentile(vs, 90),
	}
}

// String renders the summary in a fixed-width, table-friendly form.
func (c CDF) String() string {
	return fmt.Sprintf("p5=%.0f p25=%.0f p50=%.0f p75=%.0f p90=%.0f", c.P5, c.P25, c.P50, c.P75, c.P90)
}
