// Package ycsb reimplements the YCSB workload generator (Cooper et al.,
// SoCC 2010) as used by the paper: the six standard workloads A–F with
// the paper's modified proportions (WorkloadB: 100% update, WorkloadD: 5%
// read / 95% insert) and the two key distributions runs draw from: the
// hotspot configured so that 50% of requests hit 40% of the key space,
// and uniform. A closed-loop runner drives the functional hbase cluster
// for examples and integration tests; the experiment harness uses the
// same specs to parameterize the performance model.
package ycsb

import "met/internal/sim"

// Generator draws key indices from a key space [0, N).
type Generator interface {
	// Next returns the next key index.
	Next(r *sim.RNG) int64
}

// Uniform picks keys uniformly at random.
type Uniform struct {
	N int64
}

// NewUniform returns a uniform generator over [0, n).
func NewUniform(n int64) *Uniform { return &Uniform{N: n} }

// Next implements Generator.
func (u *Uniform) Next(r *sim.RNG) int64 { return r.Int63n(u.N) }

// Hotspot is YCSB's hotspot distribution: HotOpnFraction of operations
// target the first HotsetFraction of the key space (uniformly), the rest
// go uniformly to the cold set. The paper uses 0.5 / 0.4: "50% of the
// requests accessing a subset of keys that account for 40% of the key
// space".
type Hotspot struct {
	N              int64
	HotsetFraction float64
	HotOpnFraction float64
}

// NewPaperHotspot returns the paper's 50/40 hotspot over n keys.
func NewPaperHotspot(n int64) *Hotspot {
	return &Hotspot{N: n, HotsetFraction: 0.4, HotOpnFraction: 0.5}
}

// Next implements Generator.
func (h *Hotspot) Next(r *sim.RNG) int64 {
	hot := int64(float64(h.N) * h.HotsetFraction)
	if hot < 1 {
		hot = 1
	}
	if r.Float64() < h.HotOpnFraction {
		return r.Int63n(hot)
	}
	if h.N <= hot {
		return r.Int63n(h.N)
	}
	return hot + r.Int63n(h.N-hot)
}
