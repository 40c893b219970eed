package exp

import (
	"fmt"
	"io"
	"slices"

	"met/internal/autoscale"
	"met/internal/core"
	"met/internal/sim"
)

// ElasticityRun is one system's 60-minute elasticity timeline.
type ElasticityRun struct {
	// PerMinute total throughput (ops/s) and node counts.
	Throughput []float64
	Nodes      []int
	// CumulativeOps[i] is total completed operations by minute i+1.
	CumulativeOps []float64
	// PeakNodes is the largest cluster the system grew to.
	PeakNodes int
	// FinalNodes is the cluster size at the end of phase 2.
	FinalNodes int
}

// ElasticityResult reproduces Figures 5 and 6: MeT against Tiramola on
// a cluster whose added VMs take 90 s to boot, under overload, then
// progressive underload.
type ElasticityResult struct {
	MeT      ElasticityRun
	Tiramola ElasticityRun
	// Phase1End marks the end of the overload phase (33 min).
	Phase1End sim.Time
}

// elasticityMinutes is the experiment length (the paper's ~60 minutes).
const elasticityMinutes = 60

// RunElasticity executes both systems on identical scenarios: 6 region
// servers (plus the master VM the simulation does not bill), a YCSB mix
// sized to overload them (the paper saturates all clients at ~22 kops/s),
// VM boot delay for every addition, and the paper's phase-2 switch-offs:
// WorkloadE and WorkloadF at minute 33, WorkloadB (and the throttled D)
// at 43, WorkloadA at 53, leaving only WorkloadC.
func RunElasticity(seed uint64) *ElasticityResult {
	res := &ElasticityResult{Phase1End: 33 * sim.Minute}
	res.MeT = runElasticity(seed, func(sc *Scenario, d *Deployment) { elasticMeT(sc, d) })
	res.Tiramola = runElasticity(seed, func(_ *Scenario, d *Deployment) {
		params := autoscale.DefaultParams()
		params.MinNodes = 6
		params.MaxNodes = 12
		// Trigger on sustained moderate pressure; with HBase's random
		// balancer wrecking locality after every addition, waiting for 85%
		// average CPU would starve the controller of signal entirely.
		params.CPUHigh = 0.72
		runner := NewTiramolaRunner(d, params, sim.NewRNG(seed+9))
		d.control(2*sim.Minute, elasticityMinutes*sim.Minute, runner.Tick)
	})
	return res
}

// elasticMeT attaches MeT, free to grow to 12 nodes and to shrink back
// to the starting 6, to an elasticity run's deployment.
func elasticMeT(sc *Scenario, d *Deployment) *MeTRunner {
	params := core.DefaultParams()
	params.MinNodes = 6
	params.MaxNodes = 12
	runner := NewMeTRunner(d, params)
	seedTypes(runner, sc)
	d.control(2*sim.Minute, elasticityMinutes*sim.Minute, runner.Tick)
	return runner
}

// runElasticity runs one system on the overloaded starting cluster,
// whose added nodes take a VM boot (90 s) to serve; attach wires the
// system's controller to the deployment.
func runElasticity(seed uint64, attach func(*Scenario, *Deployment)) ElasticityRun {
	sc := BuildYCSBScenario(6, 1.2) // extra client threads overload the 6 servers
	sc.ApplyStrategy(ManualHomogeneous, sim.NewRNG(seed))
	d := sc.run(elasticityMinutes*sim.Minute, func(d *Deployment) {
		d.BootDelay = 90 * sim.Second
		scheduleSwitchOffs(d.Sched, sc)
		attach(sc, d)
	})
	return summarizeElasticity(d)
}

// scheduleSwitchOffs applies the paper's phase-2 schedule.
func scheduleSwitchOffs(sched *sim.Scheduler, sc *Scenario) {
	sched.ScheduleAt(33*sim.Minute, func(sim.Time) {
		sc.SetWorkloadActive("E", false)
		sc.SetWorkloadActive("F", false)
	})
	sched.ScheduleAt(43*sim.Minute, func(sim.Time) {
		sc.SetWorkloadActive("B", false)
		sc.SetWorkloadActive("D", false)
	})
	sched.ScheduleAt(53*sim.Minute, func(sim.Time) {
		sc.SetWorkloadActive("A", false)
	})
}

func summarizeElasticity(d *Deployment) ElasticityRun {
	var run ElasticityRun
	run.Throughput = perMinute(d.Series, elasticityMinutes)
	run.Nodes = make([]int, elasticityMinutes)
	cum := 0.0
	run.CumulativeOps = make([]float64, elasticityMinutes)
	for _, s := range d.Series {
		m := int(s.At / sim.Minute)
		if m < 0 || m >= elasticityMinutes {
			continue
		}
		if s.Nodes > run.Nodes[m] {
			run.Nodes[m] = s.Nodes
		}
	}
	for i, thr := range run.Throughput {
		cum += thr * 60
		run.CumulativeOps[i] = cum
	}
	run.PeakNodes = slices.Max(run.Nodes)
	run.FinalNodes = run.Nodes[len(run.Nodes)-1]
	return run
}

// Print renders the Figure 5 and Figure 6 series.
func (r *ElasticityResult) Print(w io.Writer) {
	p1 := int(r.Phase1End / sim.Minute)
	metCum := r.MeT.CumulativeOps[p1-1]
	tiraCum := r.Tiramola.CumulativeOps[p1-1]
	fmt.Fprintf(w, "Figure 5 — Cumulative operations after phase 1 (%d min):\n", p1)
	fmt.Fprintf(w, "  MeT      %12.0f ops\n", metCum)
	fmt.Fprintf(w, "  Tiramola %12.0f ops\n", tiraCum)
	if tiraCum > 0 {
		fmt.Fprintf(w, "  MeT advantage: +%.0f kops = +%.0f%% (paper: +706 kops = +31%%)\n",
			(metCum-tiraCum)/1000, 100*(metCum/tiraCum-1))
	}
	fmt.Fprintf(w, "\nFigure 6 — Throughput and cluster size over time:\n")
	fmt.Fprintf(w, "%-7s %10s %6s %12s %6s\n", "minute", "MeT ops/s", "nodes", "Tira ops/s", "nodes")
	for i := 0; i < elasticityMinutes; i++ {
		fmt.Fprintf(w, "%-7d %10.0f %6d %12.0f %6d\n", i+1,
			at(r.MeT.Throughput, i), at(r.MeT.Nodes, i),
			at(r.Tiramola.Throughput, i), at(r.Tiramola.Nodes, i))
	}
	fmt.Fprintf(w, "\nPeak nodes: MeT %d (paper: 9), Tiramola %d (paper: 11)\n", r.MeT.PeakNodes, r.Tiramola.PeakNodes)
	fmt.Fprintf(w, "Final nodes: MeT %d (paper: back to 6), Tiramola %d (paper: stays high)\n", r.MeT.FinalNodes, r.Tiramola.FinalNodes)
}
