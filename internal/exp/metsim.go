package exp

import (
	"met/internal/core"
	"met/internal/sim"
)

// MeTRunner is the MeT control loop over a Deployment: the one
// core.Controller (its Monitor polls the deployment every tick; after
// MinSamples the Decision Maker runs unless a plan is still in flight)
// acting on the deployment through core's Actuator, whose adds and
// restarts unfold on the virtual clock — the paper's 6-minute
// reconfigurations span several decision intervals.
type MeTRunner struct {
	*core.Controller
	// Window brackets the first actuation on the virtual clock, Figure
	// 4's reconfiguration window; its end stays 0 while it is in flight.
	Window [2]sim.Time
	plans  int // actuations started
}

// NewMeTRunner assembles MeT over a deployment with the paper's
// parameters and Table 1 profiles.
func NewMeTRunner(d *Deployment, params core.Params) *MeTRunner {
	r := &MeTRunner{Controller: core.NewController(d, core.NewDecisionMaker(params, core.Table1Profiles()))}
	r.Actuator.OnStart = func() {
		if r.plans++; r.plans == 1 {
			r.Window[0] = d.Sched.Now()
		}
	}
	r.Actuator.OnDone = func(core.ApplyReport, error) {
		if r.plans == 1 {
			r.Window[1] = d.Sched.Now()
		}
	}
	return r
}
