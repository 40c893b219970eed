package core

import (
	"fmt"

	"met/internal/sim"
)

// Controller ties the three components together on the virtual clock:
// the Monitor polls every SampleInterval, and once MinSamples have
// accumulated the Decision Maker runs and its output goes to the
// Actuator. After every actuation the Monitor resets, so the next
// decision sees only post-action observations — the paper's smoothing
// discipline.
type Controller struct {
	Monitor  *Monitor
	Decision *DecisionMaker
	Actuator *Actuator

	// SampleInterval is the Monitor period (30 s in the paper).
	SampleInterval sim.Time
	// OnDecision, when set, observes every decision (telemetry).
	OnDecision func(now sim.Time, d Decision, rep ApplyReport)

	decisions  int
	actuations int
}

// NewController assembles a controller with the paper's cadence that
// acts on c with the Decision Maker's parameters and profiles.
func NewController(mon *Monitor, dm *DecisionMaker, c Cluster) *Controller {
	return &Controller{
		Monitor:        mon,
		Decision:       dm,
		Actuator:       NewActuator(c, mon, dm.Params, dm.Profiles),
		SampleInterval: 30 * sim.Second,
	}
}

// Start schedules the monitor/decide loop on sched until deadline.
func (c *Controller) Start(sched *sim.Scheduler, start, deadline sim.Time) {
	sched.EachTick(start, c.SampleInterval, func(now sim.Time) bool {
		if now > deadline {
			return false
		}
		c.Tick(now)
		return true
	})
}

// Tick performs one monitor sample and, when enough samples are in and
// no earlier actuation is still unfolding, one decision + actuation:
// while the actuator is busy sampling continues and the decision waits,
// as in the paper's evaluation, where a 6-minute reconfiguration spans
// several decision intervals. Exposed so harnesses can drive the
// controller without a scheduler.
func (c *Controller) Tick(now sim.Time) {
	c.Monitor.Poll(now)
	if c.Monitor.Samples() < c.Decision.Params.MinSamples || c.Actuator.Busy() {
		return
	}
	view := c.Monitor.View()
	names := c.Actuator.ProvisionNames(c.Decision.PendingGrowth())
	d := c.Decision.Decide(view, names)
	c.decisions++
	var rep ApplyReport
	if d.Reconfigure {
		var err error
		if rep, err = c.Actuator.Apply(d.Target); err == nil {
			c.actuations++
		}
	}
	// Every decision restarts the sampling window: after an action —
	// even a failed one — stale samples would poison the next decision,
	// and a healthy cluster's next decision should see fresh ones too.
	c.Monitor.Reset()
	if c.OnDecision != nil {
		c.OnDecision(now, d, rep)
	}
}

// Decisions returns how many decisions have run.
func (c *Controller) Decisions() int { return c.decisions }

// Actuations returns how many actuations have started without Apply
// reporting an error.
func (c *Controller) Actuations() int { return c.actuations }

// Err returns the last completed actuation's error, if any.
func (c *Controller) Err() error {
	if err := c.Actuator.Err(); err != nil {
		return fmt.Errorf("core: last actuation: %w", err)
	}
	return nil
}
