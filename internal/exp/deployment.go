// Package exp is the experiment harness: it assembles the paper's
// evaluation scenarios on top of the performance model
// (met/internal/perfmodel), drives them on the virtual clock through a
// Deployment — the core.Cluster MeT's one Actuator acts on, and the
// cluster the Tiramola baseline scales — and contains one runner per
// table and figure of the paper's evaluation (Figure 1, Figure 4,
// Table 2, Figure 5, Figure 6).
package exp

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"met/internal/core"
	"met/internal/hbase"
	"met/internal/metrics"
	"met/internal/perfmodel"
	"met/internal/sim"
)

// TickSample is one point of a throughput timeline.
type TickSample struct {
	At    sim.Time
	Total float64            // cluster ops/s
	PerWL map[string]float64 // per-workload ops/s
	Nodes int                // live (serving) nodes
}

// Deployment wraps a perfmodel.Model with time dynamics: per-tick
// solving, data growth, node lifecycle (boot, restart, warmup,
// termination), region moves with locality degradation, and major
// compactions with their disk load and duration. It implements
// core.Cluster, so MeT's Monitor polls it like a real cluster and MeT's
// Actuator acts on it.
type Deployment struct {
	Sched *sim.Scheduler
	Model *perfmodel.Model
	// Tick is the solve interval (5 s by default).
	Tick sim.Time
	// RestartDuration is how long a region server restart takes.
	RestartDuration sim.Time
	// WarmupDuration is how long a restarted cache takes to warm.
	WarmupDuration sim.Time
	// CompactBytesPerSec is major-compaction speed (the paper observes
	// roughly 1 minute per GB).
	CompactBytesPerSec float64
	// MoveLocality is the locality a region drops to when moved to a
	// server that holds none of its data (replication means a little
	// of it is usually local by accident).
	MoveLocality float64
	// RampUp scales client threads linearly from 0 over this window.
	RampUp sim.Time
	// BootDelay is how long an added node's VM takes to boot before it
	// serves; 0 adds nodes instantly.
	BootDelay sim.Time

	// Series is the recorded timeline.
	Series []TickSample
	// OpsTotal accumulates completed operations per workload.
	OpsTotal map[string]float64

	lastSolution perfmodel.Solution
	// regionCum accumulates per-region request counters for Observe.
	regionCum map[string]metrics.RequestCounts
	// warmUntil is when each cold node's cache is warm again.
	warmUntil map[string]sim.Time
}

// NewDeployment builds a deployment over a model with paper-calibrated
// dynamics.
func NewDeployment(sched *sim.Scheduler, model *perfmodel.Model) *Deployment {
	return &Deployment{
		Sched:              sched,
		Model:              model,
		Tick:               5 * sim.Second,
		RestartDuration:    45 * sim.Second,
		WarmupDuration:     90 * sim.Second,
		CompactBytesPerSec: 1e9 / 60, // 1 minute per GB
		MoveLocality:       0.25,
		RampUp:             0,
		OpsTotal:           make(map[string]float64),
		regionCum:          make(map[string]metrics.RequestCounts),
		warmUntil:          make(map[string]sim.Time),
	}
}

// Start schedules ticking from the scheduler's current time until the
// deadline.
func (d *Deployment) Start(until sim.Time) {
	d.Sched.EachTick(d.Sched.Now(), d.Tick, func(now sim.Time) bool {
		if now > until {
			return false
		}
		d.step(now)
		return now+d.Tick <= until
	})
}

// control ticks a controller — MeT's or Tiramola's — every
// core.SamplePeriod of virtual time from start until deadline.
func (d *Deployment) control(start, deadline sim.Time, tick func()) {
	d.Sched.EachTick(start, sim.Time(core.SamplePeriod), func(now sim.Time) bool {
		if now > deadline {
			return false
		}
		tick()
		return true
	})
}

// step advances the deployment by one tick.
func (d *Deployment) step(now sim.Time) {
	// Ramp-up: scale thread counts during the warmup window.
	ramp := 1.0
	if d.RampUp > 0 && now < d.RampUp {
		ramp = float64(now) / float64(d.RampUp)
	}
	saved := make([]int, len(d.Model.Workloads))
	for i, w := range d.Model.Workloads {
		saved[i] = w.Threads
		w.Threads = int(math.Max(1, float64(w.Threads)*ramp))
	}
	// Cache warmup decay.
	for name, until := range d.warmUntil {
		n, ok := d.Model.Nodes[name]
		if !ok {
			delete(d.warmUntil, name)
			continue
		}
		if now >= until {
			n.ColdFraction = 0
			delete(d.warmUntil, name)
		} else {
			n.ColdFraction = float64(until-now) / float64(d.WarmupDuration)
		}
	}
	sol := d.Model.Solve()
	for i, w := range d.Model.Workloads {
		w.Threads = saved[i]
	}
	d.lastSolution = sol

	dt := d.Tick.Seconds()
	sample := TickSample{At: now, PerWL: make(map[string]float64), Nodes: len(d.serving(""))}
	for _, w := range d.Model.Workloads {
		x := sol.ThroughputOps[w.Name]
		sample.PerWL[w.Name] = x
		sample.Total += x
		d.OpsTotal[w.Name] += x * dt
		if !w.Active {
			continue
		}
		// Accumulate per-region counters for the Monitor.
		for r, share := range w.RegionShares {
			ops := x * share * dt
			d.regionCum[r] = d.regionCum[r].Add(metrics.RequestCounts{
				Reads:  int64(ops * (w.Mix.Read + w.Mix.RMW)),
				Writes: int64(ops * (w.Mix.Write + w.Mix.RMW)),
				Scans:  int64(ops * w.Mix.Scan),
			})
		}
		// Data growth from inserts (WorkloadD's fast-growing log).
		if w.GrowthBytesPerOp > 0 {
			growth := x * w.GrowthBytesPerOp * dt
			share := 1.0 / float64(len(w.RegionShares))
			for r := range w.RegionShares {
				if reg, ok := d.Model.Regions[r]; ok {
					reg.SizeBytes += growth * share
				}
			}
		}
	}
	d.Series = append(d.Series, sample)
}

// serving returns the names of the serving nodes other than exclude,
// sorted.
func (d *Deployment) serving(exclude string) []string {
	var out []string
	for _, m := range d.Members() {
		if m.Serving && m.Name != exclude {
			out = append(out, m.Name)
		}
	}
	return out
}

// TotalOps sums completed operations across workloads.
func (d *Deployment) TotalOps() float64 {
	var sum float64
	for _, v := range d.OpsTotal {
		sum += v
	}
	return sum
}

// --- cluster actions -------------------------------------------------

// Members implements core.Cluster.
func (d *Deployment) Members() []core.Member {
	var out []core.Member
	for _, name := range slices.Sorted(maps.Keys(d.Model.Nodes)) {
		n := d.Model.Nodes[name]
		out = append(out, core.Member{Name: name, Config: n.Config, Serving: !n.Offline})
	}
	return out
}

// Assignment implements core.Cluster.
func (d *Deployment) Assignment() map[string]string { return maps.Clone(d.Model.Placement) }

// Locality implements core.Cluster: a region carries traffic when an
// active workload routes requests to it.
func (d *Deployment) Locality(region string) (float64, bool) {
	r, ok := d.Model.Regions[region]
	if !ok {
		return 1, false
	}
	for _, w := range d.Model.Workloads {
		if w.Active && w.RegionShares[region] > 0 {
			return r.Locality, true
		}
	}
	return r.Locality, false
}

// AddNode boots a node, BootDelay after the call (at once when it is 0),
// and inserts it with a cold cache. done fires once it serves.
func (d *Deployment) AddNode(name string, cfg hbase.ServerConfig, done func()) error {
	ready := func() {
		d.Model.Nodes[name] = &perfmodel.NodePerf{Name: name, Config: cfg, ColdFraction: 1}
		d.warmUntil[name] = d.Sched.Now() + d.WarmupDuration
		done()
	}
	if d.BootDelay == 0 {
		ready()
	} else {
		d.Sched.ScheduleAfter(d.BootDelay, func(sim.Time) { ready() })
	}
	return nil
}

// RemoveNode drops a node; its regions must have been moved off first.
func (d *Deployment) RemoveNode(name string) error {
	for r, host := range d.Model.Placement {
		if host == name {
			return fmt.Errorf("exp: node %s still hosts region %s", name, r)
		}
	}
	delete(d.Model.Nodes, name)
	delete(d.warmUntil, name)
	return nil
}

// MoveRegion reassigns a region. Its files stay behind, so locality
// drops to MoveLocality (unless it is moving back onto data it already
// had, which this model does not track — a documented simplification).
func (d *Deployment) MoveRegion(region, node string) error {
	if _, ok := d.Model.Regions[region]; !ok {
		return fmt.Errorf("exp: unknown region %s", region)
	}
	if _, ok := d.Model.Nodes[node]; !ok {
		return fmt.Errorf("exp: unknown node %s", node)
	}
	if d.Model.Placement[region] == node {
		return nil
	}
	d.Model.Placement[region] = node
	d.Model.Regions[region].Locality = d.MoveLocality
	return nil
}

// RestartNode takes a node offline for RestartDuration, then brings it
// back with the new configuration and a cold cache. done fires when the
// node is serving again.
func (d *Deployment) RestartNode(name string, cfg hbase.ServerConfig, done func()) error {
	n, ok := d.Model.Nodes[name]
	if !ok {
		return fmt.Errorf("exp: unknown node %s", name)
	}
	n.Offline = true
	d.Sched.ScheduleAfter(d.RestartDuration, func(now sim.Time) {
		if n2, ok := d.Model.Nodes[name]; ok {
			n2.Offline = false
			n2.Config = cfg
			n2.ColdFraction = 1
			d.warmUntil[name] = now + d.WarmupDuration
		}
		done()
	})
	return nil
}

// MajorCompact rewrites a region's data locally: it applies disk load on
// the hosting node at CompactBytesPerSec for size/rate, then restores the
// region's locality to 1. It returns the region's size.
func (d *Deployment) MajorCompact(region string) (int64, error) {
	r, ok := d.Model.Regions[region]
	if !ok {
		return 0, fmt.Errorf("exp: unknown region %s", region)
	}
	host := d.Model.Placement[region]
	n, ok := d.Model.Nodes[host]
	if !ok {
		return 0, fmt.Errorf("exp: region %s unplaced", region)
	}
	duration := sim.Time(float64(sim.Second) * r.SizeBytes / d.CompactBytesPerSec)
	n.BackgroundDiskBytesPerSec += d.CompactBytesPerSec
	d.Sched.ScheduleAfter(duration, func(sim.Time) {
		if n2, ok := d.Model.Nodes[host]; ok {
			n2.BackgroundDiskBytesPerSec -= d.CompactBytesPerSec
			if n2.BackgroundDiskBytesPerSec < 0 {
				n2.BackgroundDiskBytesPerSec = 0
			}
		}
		if r2, ok := d.Model.Regions[region]; ok {
			r2.Locality = 1
		}
	})
	return int64(r.SizeBytes), nil
}

// Observe implements core.Cluster over the last solution.
func (d *Deployment) Observe() ([]metrics.NodeObservation, []metrics.RegionObservation) {
	sol := d.lastSolution
	var nodes []metrics.NodeObservation
	for _, name := range slices.Sorted(maps.Keys(d.Model.Nodes)) {
		if d.Model.Nodes[name].Offline {
			continue // a down node reports nothing, like real Ganglia
		}
		nodes = append(nodes, metrics.NodeObservation{
			Node: name,
			System: metrics.SystemMetrics{
				CPUUtilization: sol.NodeCPU[name],
				IOWait:         sol.NodeDisk[name],
				MemoryUsage:    0.5,
			},
		})
	}
	var regions []metrics.RegionObservation
	for _, r := range slices.Sorted(maps.Keys(d.Model.Placement)) {
		regions = append(regions, metrics.RegionObservation{Region: r, Node: d.Model.Placement[r], Requests: d.regionCum[r]})
	}
	return nodes, regions
}
