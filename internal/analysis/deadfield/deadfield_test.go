package deadfield

import (
	"testing"

	"met/internal/analysis"
	"met/internal/analysis/analysistest"
)

func TestDeadField(t *testing.T) {
	analysistest.Run(t, "deadfield", Analyzer)
}

func TestModuleChecksExportedFields(t *testing.T) {
	p := analysistest.Load(t, "internal/exported")
	analysistest.Check(t, p, Module([]*analysis.Package{p}))
}
