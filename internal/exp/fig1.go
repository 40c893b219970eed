package exp

import (
	"fmt"
	"io"
	"sort"

	"met/internal/core"
	"met/internal/metrics"
	"met/internal/placement"
	"met/internal/sim"
)

// WorkloadNames lists the six YCSB tenants in report order.
var WorkloadNames = []string{"A", "B", "C", "D", "E", "F"}

// Fig1Result holds the motivation experiment's output: for each strategy
// and each workload (plus Total), the CDF percentile summary over the
// runs, as plotted in the paper's Figure 1.
type Fig1Result struct {
	Runs int
	// Summary[strategy][workload] -> percentile summary; workload
	// "Total" aggregates the six.
	Summary map[Strategy]map[string]metrics.CDF
	// Raw[strategy][workload] -> per-run mean throughput (ops/s).
	Raw map[Strategy]map[string][]float64
}

// RunFig1 reproduces Figure 1: the three strategies of Section 3.3 on a
// 5-server cluster under the six simultaneous YCSB workloads, `runs`
// 30-minute runs each (the paper uses 5), reporting the 5/25/50/75/90th
// percentiles of per-run mean throughput.
func RunFig1(runs int, seed uint64) *Fig1Result {
	res := &Fig1Result{
		Runs:    runs,
		Summary: make(map[Strategy]map[string]metrics.CDF),
		Raw:     make(map[Strategy]map[string][]float64),
	}
	for _, strat := range []Strategy{RandomHomogeneous, ManualHomogeneous, ManualHeterogeneous} {
		raw := make(map[string][]float64)
		for run := 0; run < runs; run++ {
			per, total := runFig1Once(strat, seed+uint64(run)*101)
			for _, w := range WorkloadNames {
				raw[w] = append(raw[w], per[w])
			}
			raw["Total"] = append(raw["Total"], total)
		}
		res.Raw[strat] = raw
		sum := make(map[string]metrics.CDF)
		for k, vs := range raw {
			sum[k] = metrics.NewCDF(vs)
		}
		res.Summary[strat] = sum
	}
	return res
}

// runFig1Once executes one 30-minute run of one strategy.
func runFig1Once(strat Strategy, seed uint64) (map[string]float64, float64) {
	sc := BuildYCSBScenario(5, 1)
	sc.ApplyStrategy(strat, sim.NewRNG(seed))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	d.RampUp = 2 * sim.Minute
	d.Start(30 * sim.Minute)
	sched.RunUntil(30 * sim.Minute)
	skip := int((2 * sim.Minute) / d.Tick) // drop ramp-up samples
	return meanTailPerWL(d.Series, skip), meanTail(d.Series, skip)
}

// Print renders the Figure 1 table.
func (r *Fig1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 1 — Manual strategies, %d runs, 5 region servers, 6 YCSB workloads\n", r.Runs)
	fmt.Fprintf(w, "Throughput (ops/s), percentiles over runs [p5 p25 p50 p75 p90]:\n")
	cols := append(append([]string(nil), WorkloadNames...), "Total")
	for _, strat := range []Strategy{RandomHomogeneous, ManualHomogeneous, ManualHeterogeneous} {
		fmt.Fprintf(w, "\n%s:\n", strat)
		for _, c := range cols {
			cdf := r.Summary[strat][c]
			fmt.Fprintf(w, "  %-6s p5=%8.0f p25=%8.0f p50=%8.0f p75=%8.0f p90=%8.0f\n",
				c, cdf.P5, cdf.P25, cdf.P50, cdf.P75, cdf.P90)
		}
	}
	het := r.Summary[ManualHeterogeneous]["Total"].P50
	hom := r.Summary[ManualHomogeneous]["Total"].P50
	rnd := r.Summary[RandomHomogeneous]["Total"].P50
	fmt.Fprintf(w, "\nHeadline ratios (p50 totals): Het/ManualHom = %.2f (paper: ~1.35), Het/Random = %.2f (paper: >2)\n",
		het/hom, het/rnd)
	fmt.Fprintf(w, "WorkloadE scans/s p50: hom=%.0f het=%.0f (paper: ~100 -> ~1350)\n",
		r.Summary[ManualHomogeneous]["E"].P50, r.Summary[ManualHeterogeneous]["E"].P50)
}

// Fig4Result holds the convergence experiment: minute-by-minute total
// throughput for MeT (starting from Random-Homogeneous), against static
// Manual-Homogeneous and Manual-Heterogeneous runs — the paper's
// Figure 4.
type Fig4Result struct {
	// Minutes[i] is minute i+1's mean throughput for each series.
	MeT       []float64
	ManualHom []float64
	ManualHet []float64
	// ReconfigStart/End bracket MeT's observed reconfiguration window.
	ReconfigStart, ReconfigEnd sim.Time
	// MinDuringReconfig is the lowest per-minute MeT throughput during
	// reconfiguration (the paper reports ~7,500 ops/s).
	MinDuringReconfig float64
}

// RunFig4 reproduces Figure 4: a Random-Homogeneous cluster; MeT starts
// after the 2-minute ramp-up and reconfigures on-the-fly; the run lasts
// 30 minutes. The best-of-runs Manual-* series use the same machinery
// without MeT.
func RunFig4(seed uint64) *Fig4Result {
	res := &Fig4Result{}

	// MeT run.
	sc := BuildYCSBScenario(5, 1)
	sc.ApplyStrategy(RandomHomogeneous, sim.NewRNG(seed))
	sched := sim.NewScheduler()
	d := NewDeployment(sched, sc.Model)
	d.RampUp = 2 * sim.Minute
	params := core.DefaultParams()
	params.MinNodes = 5
	params.MaxNodes = 5 // Figure 4 studies reconfiguration, not scaling
	runner := NewMeTRunner(d, params, nil)
	seedTypes(runner, sc)
	d.Start(30 * sim.Minute)
	runner.Start(sched, 2*sim.Minute, 30*sim.Minute)
	sched.RunUntil(30 * sim.Minute)
	res.MeT = perMinute(d.Series, 30)

	// Reconfiguration window: first actuation start to last busy tick.
	start, end := reconfigWindow(d, runner)
	res.ReconfigStart, res.ReconfigEnd = start, end
	res.MinDuringReconfig = minBetween(d.Series, start, end)

	// Static baselines (best of 3 runs, as the paper picked best runs).
	res.ManualHom = bestStaticRun(ManualHomogeneous, seed, 3)
	res.ManualHet = bestStaticRun(ManualHeterogeneous, seed, 3)
	return res
}

// seedTypes tells the Monitor the initial (homogeneous) profile of every
// node so the first reconfiguration diff is computed correctly.
func seedTypes(m *MeTRunner, sc *Scenario) {
	for _, n := range sc.NodeNames() {
		m.Monitor.SetNodeType(n, placement.ReadWrite)
	}
}

// perMinute folds tick samples into per-minute mean totals.
func perMinute(series []TickSample, minutes int) []float64 {
	out := make([]float64, minutes)
	counts := make([]int, minutes)
	for _, s := range series {
		m := int(s.At / sim.Minute)
		if m >= 0 && m < minutes {
			out[m] += s.Total
			counts[m]++
		}
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i])
		}
	}
	return out
}

// reconfigWindow reports when MeT's first actuation began and ended,
// extended to cover any in-flight major compactions (background disk
// load visible in the deployment).
func reconfigWindow(d *Deployment, m *MeTRunner) (sim.Time, sim.Time) {
	if len(m.Sim.BusyWindows) == 0 {
		return 0, 0
	}
	w := m.Sim.BusyWindows[0]
	start, end := w[0], w[1]
	if end == 0 {
		end = d.Sched.Now() // still busy at run end
	}
	return start, end
}

// minBetween returns the minimum total throughput between two times.
func minBetween(series []TickSample, from, to sim.Time) float64 {
	min := -1.0
	for _, s := range series {
		if s.At < from || s.At > to {
			continue
		}
		if min < 0 || s.Total < min {
			min = s.Total
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// bestStaticRun returns the per-minute series of the best (by mean) of n
// static runs of a strategy.
func bestStaticRun(strat Strategy, seed uint64, n int) []float64 {
	var best []float64
	bestMean := -1.0
	for i := 0; i < n; i++ {
		sc := BuildYCSBScenario(5, 1)
		sc.ApplyStrategy(strat, sim.NewRNG(seed+uint64(i)*31))
		sched := sim.NewScheduler()
		d := NewDeployment(sched, sc.Model)
		d.RampUp = 2 * sim.Minute
		d.Start(30 * sim.Minute)
		sched.RunUntil(30 * sim.Minute)
		mean := meanTail(d.Series, int((2*sim.Minute)/d.Tick))
		if mean > bestMean {
			bestMean = mean
			best = perMinute(d.Series, 30)
		}
	}
	return best
}

// Print renders the Figure 4 series.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4 — Convergence: MeT vs manual configurations (ops/s per minute)\n")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "minute", "MeT", "Manual-Hom", "Manual-Het")
	for i := range r.MeT {
		fmt.Fprintf(w, "%-6d %12.0f %12.0f %12.0f\n", i+1, r.MeT[i], at(r.ManualHom, i), at(r.ManualHet, i))
	}
	fmt.Fprintf(w, "\nReconfiguration window: %.0f–%.0f min (paper: 2–8 min); min throughput during it: %.0f ops/s (paper: ~7500)\n",
		r.ReconfigStart.Minutes(), r.ReconfigEnd.Minutes(), r.MinDuringReconfig)
	// Post-reconfiguration MeT vs Manual-Het.
	lastN := 0.0
	lastHet := 0.0
	for i := len(r.MeT) - 5; i < len(r.MeT); i++ {
		if i >= 0 {
			lastN += at(r.MeT, i)
			lastHet += at(r.ManualHet, i)
		}
	}
	if lastHet > 0 {
		fmt.Fprintf(w, "Final-5-minute MeT/Manual-Het ratio: %.2f (paper: ~1.0)\n", lastN/lastHet)
	}
}

func at(s []float64, i int) float64 {
	if i < 0 || i >= len(s) {
		return 0
	}
	return s[i]
}

// sortStrategies is a helper for deterministic map iteration in reports.
func sortStrategies(m map[Strategy]map[string]metrics.CDF) []Strategy {
	var out []Strategy
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
