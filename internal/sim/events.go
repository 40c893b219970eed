package sim

import "container/heap"

// event is a callback scheduled to run at a virtual time.
type event struct {
	at  Time
	fn  func(now Time)
	seq uint64 // tie-break so same-time events run in scheduling order
}

// eventHeap implements container/heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler runs events in virtual-time order. Events scheduled for the
// same instant run in the order they were scheduled, which keeps runs
// deterministic.
type Scheduler struct {
	clock *Clock
	queue eventHeap
	seq   uint64
}

// NewScheduler returns a scheduler over a fresh clock.
func NewScheduler() *Scheduler {
	return &Scheduler{clock: NewClock()}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.clock.Now() }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// ScheduleAt queues fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Scheduler) ScheduleAt(t Time, fn func(now Time)) {
	if t < s.clock.Now() {
		panic("sim: event scheduled in the past")
	}
	heap.Push(&s.queue, &event{at: t, fn: fn, seq: s.seq})
	s.seq++
}

// ScheduleAfter queues fn to run d after the current time.
func (s *Scheduler) ScheduleAfter(d Time, fn func(now Time)) {
	s.ScheduleAt(s.clock.Now()+d, fn)
}

// Step runs the single earliest event. It reports false when the queue is
// empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.clock.Advance(e.at)
	e.fn(e.at)
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// after deadline. The clock finishes exactly at deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if deadline > s.clock.Now() {
		s.clock.Advance(deadline)
	}
}

// EachTick schedules fn every interval starting at start, until fn
// returns false. It is the backbone of tick-driven simulations.
func (s *Scheduler) EachTick(start, interval Time, fn func(now Time) bool) {
	var tick func(now Time)
	tick = func(now Time) {
		if !fn(now) {
			return
		}
		s.ScheduleAt(now+interval, tick)
	}
	s.ScheduleAt(start, tick)
}
