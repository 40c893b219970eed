package core

import "fmt"

// Controller ties the three components together over one Cluster: each
// Tick the Monitor polls it, and once MinSamples have accumulated the
// Decision Maker runs and its output goes to the Actuator, which acts on
// the same Cluster. After every decision the Monitor resets, so the next
// decision sees only post-action observations — the paper's smoothing
// discipline. Whoever drives the Controller ticks it every SamplePeriod
// on its own clock.
type Controller struct {
	Monitor  *Monitor
	Decision *DecisionMaker
	Actuator *Actuator

	// OnDecision, when set, observes every decision (telemetry).
	OnDecision func(d Decision, rep ApplyReport)

	decisions  int
	actuations int
}

// NewController assembles MeT over c: a Monitor that polls c and an
// Actuator that acts on c with the Decision Maker's parameters and
// profiles.
func NewController(c Cluster, dm *DecisionMaker) *Controller {
	mon := NewMonitor(c)
	return &Controller{
		Monitor:  mon,
		Decision: dm,
		Actuator: NewActuator(c, mon, dm.Params, dm.Profiles),
	}
}

// Tick performs one monitor sample and, when enough samples are in and
// no earlier actuation is still unfolding, one decision + actuation:
// while the actuator is busy sampling continues and the decision waits,
// as in the paper's evaluation, where a 6-minute reconfiguration spans
// several decision intervals.
func (c *Controller) Tick() {
	c.Monitor.Poll()
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
		c.OnDecision(d, rep)
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
