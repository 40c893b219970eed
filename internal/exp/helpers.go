package exp

// meanTail averages the Total throughput of the samples from a timeline,
// skipping the first skip samples (ramp-up).
func meanTail(series []TickSample, skip int) float64 {
	if skip >= len(series) {
		return 0
	}
	var sum float64
	for _, s := range series[skip:] {
		sum += s.Total
	}
	return sum / float64(len(series)-skip)
}

// meanTailPerWL averages per-workload throughput, skipping ramp-up.
func meanTailPerWL(series []TickSample, skip int) map[string]float64 {
	out := make(map[string]float64)
	if skip >= len(series) {
		return out
	}
	for _, s := range series[skip:] {
		for w, x := range s.PerWL {
			out[w] += x
		}
	}
	for w := range out {
		out[w] /= float64(len(series) - skip)
	}
	return out
}
