package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * Second)
	if c.Now() != 5*Second {
		t.Fatalf("clock at %v, want 5s", c.Now())
	}
	c.Advance(5 * Second) // same time is allowed
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards clock")
		}
	}()
	c := NewClock()
	c.Advance(Second)
	c.Advance(Millisecond)
}

func TestTimeConversions(t *testing.T) {
	tm := 90 * Second
	if got := tm.Seconds(); got != 90 {
		t.Errorf("Seconds() = %v, want 90", got)
	}
	if got := tm.Minutes(); got != 1.5 {
		t.Errorf("Minutes() = %v, want 1.5", got)
	}
	if Minute.String() != "1m0s" {
		t.Errorf("String() = %q", Minute.String())
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.ScheduleAt(3*Second, func(Time) { order = append(order, 3) })
	s.ScheduleAt(1*Second, func(Time) { order = append(order, 1) })
	s.ScheduleAt(2*Second, func(Time) { order = append(order, 2) })
	for s.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v", order)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock at %v after run", s.Now())
	}
}

func TestSchedulerStableSameTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(Second, func(Time) { order = append(order, i) })
	}
	for s.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s := NewScheduler()
	s.ScheduleAt(Second, func(Time) {})
	s.Step()
	s.ScheduleAt(Millisecond, func(Time) {})
}

func TestScheduleAfter(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.ScheduleAt(Second, func(now Time) {
		s.ScheduleAfter(2*Second, func(now Time) { at = now })
	})
	for s.Step() {
	}
	if at != 3*Second {
		t.Fatalf("nested event at %v, want 3s", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleAt(Time(i)*Second, func(Time) { count++ })
	}
	s.RunUntil(5 * Second)
	if count != 5 {
		t.Fatalf("ran %d events, want 5", count)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock at %v, want 5s", s.Now())
	}
	if s.Len() != 5 {
		t.Fatalf("pending %d, want 5", s.Len())
	}
	// RunUntil advances the clock even with no events in the window.
	s2 := NewScheduler()
	s2.RunUntil(7 * Second)
	if s2.Now() != 7*Second {
		t.Fatalf("empty RunUntil left clock at %v", s2.Now())
	}
}

func TestEachTick(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.EachTick(Second, 2*Second, func(now Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 4
	})
	for s.Step() {
	}
	want := []Time{1 * Second, 3 * Second, 5 * Second, 7 * Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGInt63n(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1_000_000_007)
		if v < 0 || v >= 1_000_000_007 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	// Chi-square-ish sanity check over 16 buckets.
	r := NewRNG(123)
	const n, buckets = 160000, 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.05 {
			t.Fatalf("bucket %d has %d, expected ~%.0f", i, c, expected)
		}
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(3)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make(map[int]bool)
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", vals)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(Time(i%100)*Millisecond, func(Time) {})
		if s.Len() > 1024 {
			s.Step()
		}
	}
	for s.Step() {
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
