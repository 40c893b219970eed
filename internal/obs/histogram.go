package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits is log2 of the linear sub-buckets per power-of-two octave.
	subBits = 3
	// subCount is the number of sub-buckets per octave (8), which is
	// also the number of exact unit buckets at the bottom of the range.
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: values 0..7 exactly,
	// then 60 octaves (exponents 3..62) of 8 sub-buckets each.
	numBuckets = subCount + (63-subBits)*subCount
)

// bucketIndex maps a nanosecond value to its bucket. Negative values
// (possible only from clock anomalies) clamp to bucket zero.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e >= subBits
	sub := int((uint64(v) >> (uint(e) - subBits)) & (subCount - 1))
	return (e-subBits+1)*subCount + sub
}

// bucketUpper returns the largest value that maps to bucket i — the
// inclusive upper bound percentile extraction reports.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	g := i / subCount // octave group, >= 1
	sub := i % subCount
	e := uint(g - 1 + subBits)
	width := int64(1) << (e - subBits)
	return int64(1)<<e + int64(sub+1)*width - 1
}

// Histogram is a lock-free fixed-bucket latency histogram. Recording is
// wait-free (two atomic adds plus a rarely-contended max CAS) and safe
// from any number of goroutines; Snapshot may run concurrently with
// recorders and observes each counter atomically. The zero value is
// ready to use. See the package documentation for the bucket layout.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// RecordNanos adds one observation of v nanoseconds.
func (h *Histogram) RecordNanos(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m {
			return
		}
		if h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Record adds one observation of duration d.
func (h *Histogram) Record(d time.Duration) { h.RecordNanos(int64(d)) }

// Since records the time elapsed from start and returns it, so hot
// paths can time and record in one call.
func (h *Histogram) Since(start time.Time) time.Duration {
	d := time.Since(start)
	h.RecordNanos(int64(d))
	return d
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// recorders may land between bucket reads; each counter is itself read
// atomically, so the snapshot is a valid (if slightly torn) histogram.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] = n
		s.count += n
	}
	s.sum = h.sum.Load()
	s.max = h.max.Load()
	return s
}

// Shard is the single-writer variant of Histogram: identical buckets,
// plain (non-atomic) counters. Closed-loop load generators give each
// worker its own Shard so the hot path touches no shared cache line at
// all, then merge the per-worker snapshots after the run. A Shard must
// not be written from two goroutines.
type Shard struct {
	buckets [numBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// RecordNanos adds one observation of v nanoseconds.
func (s *Shard) RecordNanos(v int64) {
	s.buckets[bucketIndex(v)]++
	s.count++
	s.sum += v
	if v > s.max {
		s.max = v
	}
}

// Snapshot converts the shard to a mergeable Snapshot.
func (s *Shard) Snapshot() Snapshot {
	return Snapshot{buckets: s.buckets, count: s.count, sum: s.sum, max: s.max}
}

// Snapshot is an immutable copy of a histogram's state. The zero value
// is an empty histogram; snapshots merge with Merge.
type Snapshot struct {
	buckets [numBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// Merge folds o into s bucket-wise.
func (s *Snapshot) Merge(o Snapshot) {
	for i, n := range o.buckets {
		s.buckets[i] += n
	}
	s.count += o.count
	s.sum += o.sum
	if o.max > s.max {
		s.max = o.max
	}
}

// Count returns the number of recorded observations.
func (s *Snapshot) Count() int64 { return s.count }

// Sum returns the exact sum of all recorded values in nanoseconds.
func (s *Snapshot) Sum() int64 { return s.sum }

// Mean returns the exact mean in nanoseconds (0 when empty).
func (s *Snapshot) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Percentile returns the value at quantile p in [0,1]: the inclusive
// upper bound of the bucket containing the ceil(p*count)-th observation,
// clamped to the observed maximum. It never understates the tail; the
// overstatement is at most one sub-bucket width (12.5% relative).
func (s *Snapshot) Percentile(p float64) int64 {
	if s.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var cum int64
	for i, n := range s.buckets {
		cum += n
		if cum >= rank {
			u := bucketUpper(i)
			if u > s.max {
				u = s.max
			}
			return u
		}
	}
	return s.max // unreachable: cum reaches count
}

// Summary extracts the fixed percentile set every exporter in the
// repository reports.
func (s *Snapshot) Summary() LatencySummary {
	return LatencySummary{
		Count: s.count,
		Mean:  s.Mean(),
		P50:   s.Percentile(0.50),
		P95:   s.Percentile(0.95),
		P99:   s.Percentile(0.99),
		P999:  s.Percentile(0.999),
		Max:   s.max,
	}
}

// MarshalJSON renders a snapshot as its LatencySummary: a report wants
// the percentiles, not 488 buckets.
func (s Snapshot) MarshalJSON() ([]byte, error) { return json.Marshal(s.Summary()) }

// LatencySummary is the compact percentile digest every JSON report
// carries (a Snapshot marshals as one). All values are nanoseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
	P999  int64   `json:"p999_ns"`
	Max   int64   `json:"max_ns"`
}
