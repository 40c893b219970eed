package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"met/internal/analysis"
	"met/internal/analysis/deadfield"
)

// listedPackage is the slice of `go list -json` output the
// standalone driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
}

// standaloneMain lints the packages patterns match (default ./...)
// and prints the findings.
func standaloneMain(patterns []string) int {
	findings, err := lint(patterns)
	printFindings(findings)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "metlint: %v\n", err)
		return 1
	case len(findings) > 0:
		return 2
	}
	return 0
}

// lint loads packages via `go list -export` and analyzes every package
// of this module, preferring the test variant of a package (production
// + test files) when one exists so crashpoint sees test coverage. All
// of them are loaded before any is analyzed: deadfield judges an
// exported field by the uses of every package (deadfield.Module).
func lint(patterns []string) ([]analysis.Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,ForTest,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}

	exportOf := map[string]string{}
	var listed []*listedPackage
	hasTestVariant := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Export != "" {
			exportOf[p.ImportPath] = p.Export
		}
		listed = append(listed, &p)
		if p.ForTest != "" && !strings.HasSuffix(p.ImportPath, ".test") {
			hasTestVariant[p.ForTest] = true
		}
	}

	var errs []error
	var pkgs []*analysis.Package
	for _, p := range listed {
		if !analyzable(p, hasTestVariant) {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			if !filepath.IsAbs(f) {
				f = filepath.Join(p.Dir, f)
			}
			files[i] = f
		}
		pkg, err := loadFromExportData(p.ImportPath, "", files,
			func(path string) (io.ReadCloser, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				file, ok := exportOf[path]
				if !ok {
					return nil, fmt.Errorf("no export data for %q", path)
				}
				return os.Open(file)
			})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.ImportPath, err))
			continue
		}
		pkgs = append(pkgs, pkg)
	}

	run := slices.Clone(analyzers)
	run[slices.Index(run, deadfield.Analyzer)] = deadfield.Module(pkgs)
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		fs, err := analysis.RunPackage(pkg, run)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", pkg.Types.Path(), err))
			continue
		}
		findings = append(findings, fs...)
	}
	return findings, errors.Join(errs...)
}

// analyzable selects this module's real packages: skip dependencies
// outside the module, generated .test binaries, the variants of a
// package recompiled for another package's test (they repeat its plain
// build), and the plain variant of any package that also has its own
// test variant (the variant's file set is a superset).
func analyzable(p *listedPackage, hasTestVariant map[string]bool) bool {
	if p.DepOnly || len(p.GoFiles) == 0 {
		return false
	}
	ip := p.ImportPath
	if ip != "met" && !strings.HasPrefix(ip, "met/") {
		return false
	}
	if strings.HasSuffix(ip, ".test") {
		return false // generated test main
	}
	if p.ForTest != "" {
		// "met/internal/kv [met/internal/kv.test]" and its external test
		// package "met/internal/kv_test [...]" belong to kv's test;
		// "met/internal/durable [met/internal/kv.test]" is durable
		// recompiled for it.
		base, _, _ := strings.Cut(ip, " ")
		return base == p.ForTest || base == p.ForTest+"_test"
	}
	return !hasTestVariant[ip] // superseded by its test variant
}
