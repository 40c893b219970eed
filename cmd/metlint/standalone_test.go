package main

import "testing"

// TestAnalyzableOnceEach: of the variants `go list -deps -test` lists,
// each package is analysed once — its own test variant and external
// test package when it has tests, its plain build otherwise — and never
// as a dependency recompiled for another package's test, whose findings
// would print a second time.
func TestAnalyzableOnceEach(t *testing.T) {
	hasTestVariant := map[string]bool{"met/internal/kv": true}
	for _, tc := range []struct {
		p    listedPackage
		want bool
	}{
		{listedPackage{ImportPath: "met/internal/kv"}, false},
		{listedPackage{ImportPath: "met/internal/kv [met/internal/kv.test]", ForTest: "met/internal/kv"}, true},
		{listedPackage{ImportPath: "met/internal/kv_test [met/internal/kv.test]", ForTest: "met/internal/kv"}, true},
		{listedPackage{ImportPath: "met/internal/kv.test"}, false},
		{listedPackage{ImportPath: "met/internal/durable"}, true},
		{listedPackage{ImportPath: "met/internal/durable [met/internal/kv.test]", ForTest: "met/internal/kv"}, false},
		{listedPackage{ImportPath: "met/internal/testutil [met/internal/kv.test]", ForTest: "met/internal/kv"}, false},
		{listedPackage{ImportPath: "fmt"}, false},
		{listedPackage{ImportPath: "met/internal/obs", DepOnly: true}, false},
	} {
		tc.p.GoFiles = []string{"x.go"}
		if got := analyzable(&tc.p, hasTestVariant); got != tc.want {
			t.Errorf("analyzable(%q, ForTest %q) = %v, want %v", tc.p.ImportPath, tc.p.ForTest, got, tc.want)
		}
	}
}
