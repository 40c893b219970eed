package syncerr

import (
	"testing"

	"met/internal/analysis/analysistest"
)

func TestSyncErr(t *testing.T) {
	for _, f := range []string{"(syncerr.WAL).Append", "(syncerr.WAL).AppendBuffered", "(syncerr.WAL).Close"} {
		Funcs[f] = true
		defer delete(Funcs, f)
	}
	analysistest.Run(t, "syncerr", Analyzer)
}
