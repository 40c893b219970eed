package locksafe

import (
	"testing"

	"met/internal/analysis/analysistest"
)

func TestLocksafe(t *testing.T) {
	// Register the fixture's guard types alongside the real ones.
	// locksafe.Server stands in for the rpc-layer guarded types.
	// locksafe.connPool stands in for the client's stream pool.
	for _, g := range []string{"locksafe.Store", "locksafe.WAL", "locksafe.Server", "locksafe.connPool"} {
		Guarded[g] = true
		defer delete(Guarded, g)
	}
	// The fixture's stand-ins for the rpc layer's control call and its
	// frame read, write and dial helpers.
	for _, f := range []string{"locksafe.callJSON", "locksafe.readFrame", "locksafe.writeFrame", "locksafe.dialStream"} {
		BlockingFuncs[f] = true
		defer delete(BlockingFuncs, f)
	}
	analysistest.Run(t, "locksafe", Analyzer)
}
