package metrics

// Smoother is Brown's simple exponential smoothing (the paper cites
// R. G. Brown, "Smoothing, forecasting and prediction of discrete time
// series", 1963). The most recent observation carries the most weight,
// with earlier observations decaying exponentially — exactly the
// behaviour MeT's Monitor uses to avoid reacting to temporary spikes.
//
// The Monitor additionally discards all history after each decision
// and starts fresh smoothers; Reset returns one to that state.
type Smoother struct {
	// Alpha in (0,1]: weight of the newest observation. The paper does
	// not publish its alpha; 0.5 weighs the latest sample most while
	// still requiring a sustained trend to move the estimate.
	Alpha float64

	value  float64
	primed bool
}

// NewSmoother returns a smoother with the given alpha. Alpha is clamped
// to (0, 1].
func NewSmoother(alpha float64) *Smoother {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &Smoother{Alpha: alpha}
}

// Observe folds a new observation into the estimate and returns the
// updated smoothed value.
func (s *Smoother) Observe(v float64) float64 {
	if !s.primed {
		s.value = v
		s.primed = true
	} else {
		s.value = s.Alpha*v + (1-s.Alpha)*s.value
	}
	return s.value
}

// Value returns the current smoothed estimate (0 before any observation).
func (s *Smoother) Value() float64 { return s.value }

// Reset discards all state, as if the smoother were new.
func (s *Smoother) Reset() {
	s.value = 0
	s.primed = false
}
