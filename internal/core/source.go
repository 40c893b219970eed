package core

import (
	"met/internal/hbase"
	"met/internal/metrics"
	"met/internal/obs"
	"met/internal/sim"
)

// ClusterSource adapts the functional hbase cluster to metrics.Source so
// the Monitor can poll it like Ganglia + JMX. System metrics (CPU, I/O
// wait) have no physical meaning in the functional layer, so they are
// derived from request throughput against a nominal per-node capacity —
// enough for StageA's thresholds to respond to real load imbalance in
// integration tests. The simulated deployment (met/internal/exp) supplies
// real modeled utilizations instead.
type ClusterSource struct {
	Master *hbase.Master
	// NominalOpsPerSec is the per-node request rate treated as 100%
	// CPU; requests are measured since the previous poll.
	NominalOpsPerSec float64
	// Interval is the expected polling period used to turn request
	// deltas into rates.
	Interval sim.Time

	prevNode map[string]metrics.RequestCounts
}

// NewClusterSource wires a source to the master.
func NewClusterSource(m *hbase.Master, nominalOps float64, interval sim.Time) *ClusterSource {
	return &ClusterSource{
		Master:           m,
		NominalOpsPerSec: nominalOps,
		Interval:         interval,
		prevNode:         make(map[string]metrics.RequestCounts),
	}
}

// Observe implements metrics.Source.
func (s *ClusterSource) Observe(now sim.Time) ([]metrics.NodeObservation, []metrics.RegionObservation) {
	var nodes []metrics.NodeObservation
	var regions []metrics.RegionObservation
	secs := s.Interval.Seconds()
	if secs <= 0 {
		secs = 30
	}
	// One real runtime sample per poll; it describes the whole process,
	// so every durable node in this single-process cluster shares it.
	memory := -1.0
	for _, rs := range s.Master.Servers() {
		// The node's whole state in one snapshot; a decision rule that
		// wants engine, WAL or replication health finds it in st too.
		st := rs.Stats()
		delta := st.Requests.Sub(s.prevNode[st.Name])
		s.prevNode[st.Name] = st.Requests
		rate := float64(delta.Total()) / secs
		util := 0.0
		if s.NominalOpsPerSec > 0 {
			util = rate / s.NominalOpsPerSec
		}
		if util > 1 {
			util = 1
		}
		sys := metrics.SystemMetrics{
			CPUUtilization: util,
			IOWait:         util * 0.4,
			MemoryUsage:    0.5,
		}
		if rs.Config().DataDir != "" {
			// Durable nodes are a real process: report the runtime's
			// memory pressure instead of the simulation placeholder.
			if memory < 0 {
				memory = obs.ReadProcessStats().MemoryFraction()
			}
			sys.MemoryUsage = memory
		}
		nodes = append(nodes, metrics.NodeObservation{
			At:       now,
			Node:     st.Name,
			System:   sys,
			Requests: delta,
			Locality: st.Locality,
		})
		for _, r := range st.PerRegion {
			regions = append(regions, metrics.RegionObservation{
				At:       now,
				Region:   r.Name,
				Node:     st.Name,
				Requests: r.Requests, // cumulative; Monitor diffs it
				SizeMB:   float64(r.DataBytes) / (1 << 20),
			})
		}
	}
	return nodes, regions
}
