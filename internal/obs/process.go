package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// ProcessStats is a sample of the Go runtime for a node's /metrics page.
type ProcessStats struct {
	// HeapLiveBytes is the live heap (bytes occupied by reachable
	// objects plus not-yet-swept garbage).
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// TotalBytes is everything the runtime has obtained from the OS.
	TotalBytes uint64 `json:"total_bytes"`
	// GCCycles is the cumulative completed GC cycle count.
	GCCycles uint64 `json:"gc_cycles"`
	// GCPauseP99 is the 99th-percentile stop-the-world pause over the
	// process lifetime.
	GCPauseP99 time.Duration `json:"gc_pause_p99_ns"`
	// Goroutines is the current live goroutine count.
	Goroutines int `json:"goroutines"`
}

var processSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// ReadProcessStats samples the runtime/metrics interface. Metrics a
// future runtime drops read as zero rather than failing.
func ReadProcessStats() ProcessStats {
	samples := make([]metrics.Sample, len(processSamples))
	copy(samples, processSamples)
	metrics.Read(samples)
	var p ProcessStats
	p.HeapLiveBytes = sampleUint64(samples[0])
	p.TotalBytes = sampleUint64(samples[1])
	p.GCCycles = sampleUint64(samples[2])
	p.Goroutines = int(sampleUint64(samples[3]))
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		p.GCPauseP99 = histogramQuantile(samples[4].Value.Float64Histogram(), 0.99)
	}
	return p
}

func sampleUint64(s metrics.Sample) uint64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return s.Value.Uint64()
	case metrics.KindFloat64:
		return uint64(s.Value.Float64())
	default:
		return 0
	}
}

// histogramQuantile extracts quantile q from a runtime Float64Histogram
// (values in seconds), returning the upper bound of the bucket holding
// the rank — consistent with Snapshot.Percentile's tail-conservative
// convention.
func histogramQuantile(h *metrics.Float64Histogram, q float64) time.Duration {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			upper := h.Buckets[i+1]
			if math.IsInf(upper, 1) {
				upper = h.Buckets[i]
			}
			return time.Duration(upper * float64(time.Second))
		}
	}
	return 0
}

// WriteProcessMetrics emits the met_process_* runtime series — the part
// of a /metrics page that describes the process, not a server it hosts.
func WriteProcessMetrics(mw *MetricWriter) {
	p := ReadProcessStats()
	emit := func(name, help, typ string, v float64) { mw.Header(name, help, typ); mw.Sample(name, nil, v) }
	emit("met_process_heap_live_bytes", "Live heap bytes (runtime/metrics).", "gauge", float64(p.HeapLiveBytes))
	emit("met_process_memory_bytes", "Total runtime-owned memory.", "gauge", float64(p.TotalBytes))
	emit("met_process_goroutines", "Live goroutines.", "gauge", float64(p.Goroutines))
	emit("met_process_gc_cycles_total", "Completed GC cycles.", "counter", float64(p.GCCycles))
	emit("met_process_gc_pause_p99_seconds", "p99 stop-the-world GC pause.", "gauge", p.GCPauseP99.Seconds())
}
