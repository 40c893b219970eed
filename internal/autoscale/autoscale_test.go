package autoscale

import "testing"

func cpus(vals ...float64) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for i, v := range vals {
		out[string(rune('a'+i))] = v
	}
	return out
}

func TestAddOnHighAverage(t *testing.T) {
	p := DefaultParams()
	p.CooldownEvaluations = 0
	tr := NewTiramola(p)
	if got := tr.Evaluate(cpus(0.95, 0.9, 0.92)); got != ActionAddNode {
		t.Fatalf("action = %v", got)
	}
}

func TestNoAddWhenAverageModerate(t *testing.T) {
	tr := NewTiramola(DefaultParams())
	// One hot node does not raise the average enough: this is exactly
	// the blindness to skew the paper criticizes.
	if got := tr.Evaluate(cpus(0.99, 0.2, 0.2, 0.2)); got != ActionNone {
		t.Fatalf("action = %v", got)
	}
}

func TestRemoveOnlyWhenAllIdle(t *testing.T) {
	p := DefaultParams()
	p.CooldownEvaluations = 0
	tr := NewTiramola(p)
	// One busy node blocks removal even if the average is low.
	if got := tr.Evaluate(cpus(0.05, 0.05, 0.6)); got != ActionNone {
		t.Fatalf("action = %v", got)
	}
	if got := tr.Evaluate(cpus(0.05, 0.05, 0.1)); got != ActionRemoveNode {
		t.Fatalf("action = %v", got)
	}
}

func TestMinMaxBounds(t *testing.T) {
	p := DefaultParams()
	p.CooldownEvaluations = 0
	p.MinNodes = 3
	p.MaxNodes = 3
	tr := NewTiramola(p)
	if got := tr.Evaluate(cpus(0.99, 0.99, 0.99)); got != ActionNone {
		t.Fatalf("add beyond max: %v", got)
	}
	if got := tr.Evaluate(cpus(0.01, 0.01, 0.01)); got != ActionNone {
		t.Fatalf("remove below min: %v", got)
	}
}

func TestCooldownSuppresses(t *testing.T) {
	p := DefaultParams()
	p.CooldownEvaluations = 2
	tr := NewTiramola(p)
	if tr.Evaluate(cpus(0.95, 0.95)) != ActionAddNode {
		t.Fatal("first add suppressed")
	}
	if tr.Evaluate(cpus(0.95, 0.95)) != ActionNone {
		t.Fatal("cooldown ignored")
	}
	if tr.Evaluate(cpus(0.95, 0.95)) != ActionNone {
		t.Fatal("cooldown ignored (2)")
	}
	if tr.Evaluate(cpus(0.95, 0.95)) != ActionAddNode {
		t.Fatal("post-cooldown add suppressed")
	}
}

func TestEmptyCluster(t *testing.T) {
	tr := NewTiramola(DefaultParams())
	if tr.Evaluate(nil) != ActionNone {
		t.Fatal("action on empty cluster")
	}
}

func TestActionString(t *testing.T) {
	for _, a := range []Action{ActionNone, ActionAddNode, ActionRemoveNode, Action(9)} {
		if a.String() == "" {
			t.Fatal("empty action string")
		}
	}
}
