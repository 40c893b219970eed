package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns Python's statistics.quantiles(values, n=4) — the
// exclusive method the acceptance check uses — or NaNs for fewer than
// two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		q2 = math.NaN()
		if n == 1 {
			q2 = v[0]
		}
		return math.NaN(), q2, math.NaN()
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, per workload and end-to-end metric, the medians
// of the untraced runs in a and b, B's change relative to A in the
// "worse" direction, each side's quartile spread and the bound from
// the spec. A pair whose spread exceeds the bound is unresolved, not
// unchanged; a resolved pair worse by more than the bound is a
// regression.
func compareFiles(w io.Writer, specPath, a, b string) (regressed bool, err error) {
	var sp spec
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	sides := [2]map[string]map[string][]float64{}
	for i, path := range []string{a, b} {
		records, err := loadRecords(path)
		if err != nil {
			return false, err
		}
		sides[i] = map[string]map[string][]float64{}
		for _, r := range records {
			if r.Trace {
				continue
			}
			if !r.Correct {
				return false, fmt.Errorf("%s: %s seed %d is a failed run", path, r.Workload, r.Seed)
			}
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], v)
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, def := range sp.EndToEnd {
			va, vb := sides[0][wl.Name][def.Name], sides[1][wl.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing on one side\n", wl.Name, def.Name)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if def.Better == "higher" {
				worse = -worse
			}
			// NaN spreads (a single run) compare false: such a pair is
			// judged on its medians alone.
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := "ok"
			switch {
			case spreadA > *def.Bound || spreadB > *def.Bound:
				verdict = "unresolved"
			case worse > *def.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-16s %12.3f %12.3f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d %s)\n",
				wl.Name, def.Name, am, bm, 100*worse, 100*spreadA, 100*spreadB, 100**def.Bound, verdict, len(va), len(vb), def.Unit)
		}
	}
	return regressed, nil
}
