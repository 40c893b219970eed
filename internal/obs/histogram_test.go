package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// maxRelErr is the histogram's worst-case relative bucket error: one
// sub-bucket out of 2^subBits per octave.
const maxRelErr = 1.0 / subCount

func TestBucketRoundTrip(t *testing.T) {
	// Every boundary-adjacent value must land in a bucket whose range
	// contains it, and bucket indexes must be monotone in the value.
	vals := []int64{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 1000,
		1 << 20, 1<<20 + 1, 1<<40 - 1, 1 << 40, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		upper := bucketUpper(i)
		if v > upper {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, i, upper)
		}
		if i > 0 && v <= bucketUpper(i-1) {
			t.Fatalf("value %d at or below previous bucket upper %d", v, bucketUpper(i-1))
		}
		if i >= numBuckets {
			t.Fatalf("bucket %d out of range for %d", i, v)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("negative value bucket = %d, want 0", got)
	}
}

// oracle computes the percentile the way internal/metrics does on raw
// samples: the histogram answer must sit in [oracle, oracle*(1+err)].
func oracle(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestPercentileVsSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(10_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) },
		"bimodal": func() int64 {
			if rng.Intn(100) < 95 {
				return 50_000 + rng.Int63n(10_000)
			}
			return 40_000_000 + rng.Int63n(5_000_000)
		},
	}
	for name, gen := range dists {
		var h Histogram
		vals := make([]int64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := gen()
			vals = append(vals, v)
			h.RecordNanos(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		if s.Count() != int64(len(vals)) {
			t.Fatalf("%s: count %d != %d", name, s.Count(), len(vals))
		}
		var sum int64
		for _, v := range vals {
			sum += v
		}
		if s.Sum() != sum {
			t.Fatalf("%s: sum %d != %d", name, s.Sum(), sum)
		}
		if s.max != vals[len(vals)-1] {
			t.Fatalf("%s: max %d != %d", name, s.max, vals[len(vals)-1])
		}
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
			want := oracle(vals, p)
			got := s.Percentile(p)
			if got < want {
				t.Errorf("%s p%v: histogram %d understates oracle %d", name, p, got, want)
			}
			if float64(got) > float64(want)*(1+maxRelErr)+1 {
				t.Errorf("%s p%v: histogram %d exceeds oracle %d by more than %.1f%%",
					name, p, got, want, maxRelErr*100)
			}
		}
	}
}

func TestMergeMatchesCombinedRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var combined Histogram
	var shards [4]Shard
	var merged Snapshot
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(1_000_000)
		combined.RecordNanos(v)
		shards[i%len(shards)].RecordNanos(v)
	}
	for i := range shards {
		merged.Merge(shards[i].Snapshot())
	}
	want := combined.Snapshot()
	if merged != want {
		t.Fatalf("merged shard snapshot differs from combined histogram:\nmerged  %+v\ncombined %+v",
			merged.Summary(), want.Summary())
	}
}

func TestEmptySnapshot(t *testing.T) {
	var s Snapshot
	if s.Percentile(0.99) != 0 || s.Mean() != 0 || s.Count() != 0 {
		t.Fatalf("empty snapshot not all-zero: %+v", s.Summary())
	}
}

func TestConcurrentRecorders(t *testing.T) {
	// -race stress: many goroutines record while another snapshots.
	var h Histogram
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				_ = s.Summary()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.RecordNanos(rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count() != workers*perWorker {
		t.Fatalf("lost records: count %d != %d", s.Count(), workers*perWorker)
	}
}

func TestRecordHelpers(t *testing.T) {
	var h Histogram
	h.Record(2 * time.Millisecond)
	if d := h.Since(time.Now().Add(-time.Millisecond)); d < time.Millisecond {
		t.Fatalf("Since returned %v, want >= 1ms", d)
	}
	s := h.Snapshot()
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2", s.Count())
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.RecordNanos(v)
			v = (v * 2862933555777941757) % (1 << 22) // cheap LCG spread
		}
	})
}

func BenchmarkShardRecord(b *testing.B) {
	var s Shard
	v := int64(1)
	for i := 0; i < b.N; i++ {
		s.RecordNanos(v)
		v = (v * 2862933555777941757) % (1 << 22)
	}
}
