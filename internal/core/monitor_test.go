package core

import (
	"maps"
	"math"
	"slices"
	"testing"

	"met/internal/metrics"
)

// observe makes f report one node per entry of cpu, with I/O wait and
// memory derived from its CPU.
func observe(f *fakeCluster, cpu map[string]float64) {
	f.nodeObs = nil
	for _, n := range slices.Sorted(maps.Keys(cpu)) {
		c := cpu[n]
		f.nodeObs = append(f.nodeObs, metrics.NodeObservation{
			Node:   n,
			System: metrics.SystemMetrics{CPUUtilization: c, IOWait: c / 2, MemoryUsage: c / 4},
		})
	}
}

// nodeMetricsOf maps each node of a view to its smoothed CPU, I/O wait
// and memory.
func nodeMetricsOf(v ClusterView) (cpu, io, mem map[string]float64) {
	cpu, io, mem = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, n := range v.Nodes {
		cpu[n.Name], io[n.Name], mem[n.Name] = n.CPU, n.IOWait, n.Memory
	}
	return cpu, io, mem
}

func TestMonitorSmoothsPerNode(t *testing.T) {
	f := newFakeCluster(false, nil)
	observe(f, map[string]float64{"rs1": 0.9, "rs2": 0.1})
	mon := NewMonitor(f)
	for i := 0; i < 6; i++ {
		mon.Poll()
	}
	if mon.Samples() != 6 {
		t.Fatalf("observations = %d", mon.Samples())
	}
	cpu, io, mem := nodeMetricsOf(mon.View())
	if math.Abs(cpu["rs1"]-0.9) > 1e-6 || math.Abs(cpu["rs2"]-0.1) > 1e-6 {
		t.Fatalf("smoothed cpu = %v", cpu)
	}
	if math.Abs(io["rs1"]-0.45) > 1e-6 {
		t.Fatalf("smoothed io = %v", io)
	}
	if math.Abs(mem["rs2"]-0.025) > 1e-6 {
		t.Fatalf("smoothed mem = %v", mem)
	}
}

func TestMonitorResetsSmoothing(t *testing.T) {
	f := newFakeCluster(false, nil)
	observe(f, map[string]float64{"rs1": 0.5})
	mon := NewMonitor(f)
	mon.Poll()
	mon.Reset()
	if mon.Samples() != 0 {
		t.Fatal("observations not reset")
	}
	if len(mon.View().Nodes) != 0 {
		t.Fatal("smoothed values survive reset")
	}
	// Polling again re-primes from fresh state.
	mon.Poll()
	if cpu, _, _ := nodeMetricsOf(mon.View()); cpu["rs1"] != 0.5 {
		t.Fatalf("post-reset cpu = %v", cpu["rs1"])
	}
}

func TestMonitorNodesSorted(t *testing.T) {
	f := newFakeCluster(false, nil)
	observe(f, map[string]float64{"rs2": 0.5, "rs1": 0.2, "rs3": 0.7})
	f.nodeObs[0], f.nodeObs[2] = f.nodeObs[2], f.nodeObs[0]
	mon := NewMonitor(f)
	mon.Poll()
	nodes := mon.View().Nodes
	if len(nodes) != 3 || nodes[0].Name != "rs1" || nodes[2].Name != "rs3" {
		t.Fatalf("nodes = %v", nodes)
	}
}

// TestMonitorDropsRemovedNode: a node that left the cluster leaves the
// view with the next poll, so the Decision Maker never sees an idle
// phantom node and MeT never re-adds what it removed.
func TestMonitorDropsRemovedNode(t *testing.T) {
	m, c := buildCluster(t, 3)
	mon := NewMonitor(&MasterCluster{Master: m})
	driveLoad(t, c, 50)
	mon.Poll()
	if err := m.DecommissionServer("rs2"); err != nil {
		t.Fatal(err)
	}
	driveLoad(t, c, 50)
	mon.Poll()
	view := mon.View()
	for _, n := range view.Nodes {
		if n.Name == "rs2" {
			t.Fatal("view lists removed node rs2")
		}
	}
	if len(view.Nodes) != 2 {
		t.Fatalf("view nodes = %+v", view.Nodes)
	}
}

// TestMonitorCounterRule pins the one rule by which the Monitor turns a
// region's cumulative counter into requests: the first poll counts the
// whole value, a counter that rose contributes the difference, one that
// fell was restarted and contributes its new value, and Reset empties
// the window but keeps each counter's last value.
func TestMonitorCounterRule(t *testing.T) {
	f := newFakeCluster(false, nil)
	mon := NewMonitor(f)
	poll := func(c metrics.RequestCounts) metrics.RequestCounts {
		t.Helper()
		f.regionObs = []metrics.RegionObservation{{Region: "r0", Node: "rs0", Requests: c}}
		mon.Poll()
		parts := mon.View().Partitions
		if len(parts) != 1 || parts[0].Name != "r0" || parts[0].Node != "rs0" {
			t.Fatalf("partitions = %+v", parts)
		}
		return parts[0].Requests
	}
	if got := poll(rc(10, 5, 1)); got != rc(10, 5, 1) {
		t.Fatalf("first poll counted %+v, want the whole value", got)
	}
	if got := poll(rc(15, 5, 3)); got != rc(15, 5, 3) {
		t.Fatalf("a rise counted %+v, want 10+5, 5+0, 1+2", got)
	}
	if got := poll(rc(20, 2, 3)); got != rc(35, 7, 6) {
		t.Fatalf("a restarted counter counted %+v, want its new value added whole", got)
	}
	mon.Reset()
	if got := mon.View().Partitions[0].Requests; got != (metrics.RequestCounts{}) {
		t.Fatalf("requests survived reset: %+v", got)
	}
	if got := poll(rc(21, 4, 3)); got != rc(1, 2, 0) {
		t.Fatalf("after reset a rise counted %+v, want the difference from the last value", got)
	}
}
