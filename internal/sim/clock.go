// Package sim provides the deterministic discrete-event simulation kernel
// used by every timed substrate in this repository: a virtual clock, an
// event queue with stable ordering, and a seedable pseudo-random number
// generator. All experiment time in the MeT reproduction is virtual time;
// nothing in this package reads the wall clock.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Common virtual-time unit helpers.
const (
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
	Minute      = Time(time.Minute)
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Minutes returns the time as a floating-point number of minutes.
func (t Time) Minutes() float64 { return time.Duration(t).Minutes() }

// String formats the time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Clock tracks the current virtual time. It only moves forward.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the epoch.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock to t. It panics if t is in the past, because a
// backwards-moving clock indicates a corrupted event queue.
func (c *Clock) Advance(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}
