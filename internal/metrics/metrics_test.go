package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"met/internal/sim"
)

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1}, {-5, 1}, {110, 10},
	}
	for _, c := range cases {
		if got := Percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 50) != 7 {
		t.Error("single-element percentile")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vs := []float64{3, 1, 2}
	Percentile(vs, 50)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("input mutated: %v", vs)
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := sim.NewRNG(4)
	if err := quick.Check(func(seed uint32) bool {
		n := int(seed%50) + 2
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = r.Float64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(vs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCDF(t *testing.T) {
	vs := make([]float64, 101)
	for i := range vs {
		vs[i] = float64(i)
	}
	c := NewCDF(vs)
	if c.P5 != 5 || c.P25 != 25 || c.P50 != 50 || c.P75 != 75 || c.P90 != 90 {
		t.Fatalf("cdf = %+v", c)
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSmootherConverges(t *testing.T) {
	s := NewSmoother(0.5)
	for i := 0; i < 50; i++ {
		s.Observe(10)
	}
	if math.Abs(s.Value()-10) > 1e-9 {
		t.Fatalf("smoother = %v, want 10", s.Value())
	}
}

func TestSmootherDampsSpike(t *testing.T) {
	s := NewSmoother(0.5)
	for i := 0; i < 10; i++ {
		s.Observe(1)
	}
	spiked := s.Observe(100)
	if spiked >= 100 {
		t.Fatal("spike not damped")
	}
	if spiked <= 1 {
		t.Fatal("spike ignored entirely")
	}
	// Recent observations dominate: after the spike, a few normal samples
	// bring the estimate back down.
	for i := 0; i < 10; i++ {
		s.Observe(1)
	}
	if s.Value() > 2 {
		t.Fatalf("estimate %v did not recover", s.Value())
	}
}

func TestSmootherRecentWeighsMost(t *testing.T) {
	// With alpha=0.5 the newest sample has the single largest weight.
	s := NewSmoother(0.5)
	s.Observe(0)
	s.Observe(0)
	v := s.Observe(8)
	if v != 4 {
		t.Fatalf("value = %v, want 4", v)
	}
}

func TestSmootherReset(t *testing.T) {
	s := NewSmoother(0.3)
	s.Observe(5)
	s.Reset()
	if s.Value() != 0 {
		t.Fatal("reset did not clear state")
	}
	if got := s.Observe(7); got != 7 {
		t.Fatalf("first post-reset observation = %v, want 7", got)
	}
}

func TestSmootherAlphaClamped(t *testing.T) {
	if s := NewSmoother(0); s.Alpha <= 0 {
		t.Fatal("alpha not clamped up")
	}
	if s := NewSmoother(5); s.Alpha != 1 {
		t.Fatal("alpha not clamped down")
	}
}

func TestRequestCountsArithmetic(t *testing.T) {
	a := RequestCounts{Reads: 10, Writes: 5, Scans: 2}
	b := RequestCounts{Reads: 3, Writes: 1, Scans: 1}
	if got := a.Add(b); got != (RequestCounts{13, 6, 3}) {
		t.Fatalf("add = %+v", got)
	}
	if got := a.Sub(b); got != (RequestCounts{7, 4, 1}) {
		t.Fatalf("sub = %+v", got)
	}
	if a.Total() != 17 {
		t.Fatalf("total = %d", a.Total())
	}
}
