// Package autoscale implements the system MeT is compared against in
// Section 6.4: Tiramola (Konstantinou et al., CIKM 2011). It is
// oblivious to the database: it watches system-level metrics only, adds
// or removes whole nodes, never reconfigures them, never moves data
// deliberately (the database's random balancer redistributes), and
// never restores locality.
package autoscale

import "fmt"

// Action is an autoscaler's verdict for one evaluation.
type Action int

// Possible actions.
const (
	ActionNone Action = iota
	ActionAddNode
	ActionRemoveNode
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionAddNode:
		return "add"
	case ActionRemoveNode:
		return "remove"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Params configure the Tiramola-style controller.
type Params struct {
	// CPUHigh: adding threshold on the cluster's average CPU.
	CPUHigh float64
	// CPULow: removal threshold; per the paper, Tiramola "only
	// releases resources when every node in the cluster is
	// underutilized", and this cannot be parameterized away.
	CPULow float64
	// MinNodes / MaxNodes bound the cluster.
	MinNodes int
	MaxNodes int
	// CooldownEvaluations suppresses actions for this many evaluations
	// after an action (avoids thrashing while a VM boots).
	CooldownEvaluations int
}

// DefaultParams returns thresholds matching the evaluation setup.
func DefaultParams() Params {
	return Params{
		CPUHigh:             0.85,
		CPULow:              0.30,
		MinNodes:            1,
		MaxNodes:            64,
		CooldownEvaluations: 6,
	}
}

// Tiramola is the baseline controller.
type Tiramola struct {
	Params   Params
	cooldown int
}

// NewTiramola returns a controller with the given parameters.
func NewTiramola(p Params) *Tiramola { return &Tiramola{Params: p} }

// Evaluate inspects per-node CPU utilizations and returns an action.
func (t *Tiramola) Evaluate(nodeCPU map[string]float64) Action {
	if t.cooldown > 0 {
		t.cooldown--
		return ActionNone
	}
	n := len(nodeCPU)
	if n == 0 {
		return ActionNone
	}
	var sum float64
	allLow := true
	for _, c := range nodeCPU {
		sum += c
		if c >= t.Params.CPULow {
			allLow = false
		}
	}
	avg := sum / float64(n)
	switch {
	case avg > t.Params.CPUHigh && n < t.Params.MaxNodes:
		t.cooldown = t.Params.CooldownEvaluations
		return ActionAddNode
	case allLow && n > t.Params.MinNodes:
		t.cooldown = t.Params.CooldownEvaluations
		return ActionRemoveNode
	default:
		return ActionNone
	}
}
