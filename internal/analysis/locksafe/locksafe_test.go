package locksafe

import (
	"testing"

	"met/internal/analysis/analysistest"
)

func TestLocksafe(t *testing.T) {
	// Register the fixture's guard types alongside the real ones.
	// locksafe.Server stands in for the rpc-layer guarded types.
	for _, g := range []string{"locksafe.Store", "locksafe.WAL", "locksafe.Server"} {
		Guarded[g] = true
		defer delete(Guarded, g)
	}
	// locksafe.callJSON stands in for the rpc layer's control call.
	BlockingFuncs["locksafe.callJSON"] = true
	defer delete(BlockingFuncs, "locksafe.callJSON")
	analysistest.Run(t, "locksafe", Analyzer)
}
