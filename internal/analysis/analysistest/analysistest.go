// Package analysistest runs an analyzer over source fixtures and
// checks its diagnostics against expectations embedded in the
// fixtures, in the style of golang.org/x/tools/go/analysis/analysistest
// (which is unavailable in this build environment).
//
// Fixtures live under <analyzer pkg>/testdata/src/<pkg>/ and declare
// expected diagnostics with trailing comments:
//
//	s.mu.Lock()
//	time.Sleep(time.Millisecond) // want `blocking call`
//
// Each `// want` comment holds one or more quoted regular
// expressions, each of which must match exactly one diagnostic
// reported on that line. Diagnostics without a matching want, and
// wants without a matching diagnostic, fail the test. Because the
// harness routes through analysis.RunPackage, //lint:allow
// annotations in fixtures are honored — a suppressed diagnostic needs
// no want comment, which is how the allowlist fixtures prove an
// annotation suppresses exactly one diagnostic.
//
// Fixtures are type-checked from source with the standard library
// available; they must not import anything outside std.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"met/internal/analysis"
)

// Run loads the fixture package at testdata/src/<pkg> relative to the
// caller's working directory (the analyzer package under test),
// applies the analyzer and diffs diagnostics against want comments.
func Run(t *testing.T, pkg string, a *analysis.Analyzer) {
	t.Helper()
	Check(t, Load(t, pkg), a)
}

// Load parses and type-checks the fixture package at testdata/src/<pkg>;
// pkg is also its import path.
func Load(t *testing.T, pkg string) *analysis.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	names, err := fixtureFiles(dir)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}

	info := analysis.NewInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
	}
	tpkg, err := conf.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", pkg, err)
	}

	return &analysis.Package{Fset: fset, Files: files, Types: tpkg, Info: info}
}

// Check applies the analyzer to a loaded fixture package and diffs its
// diagnostics against the want comments.
func Check(t *testing.T, p *analysis.Package, a *analysis.Analyzer) {
	t.Helper()
	findings, err := analysis.RunPackage(p, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkExpectations(t, p.Fset, p.Files, findings)
}

// fixtureFiles lists the .go files of a fixture directory in a stable
// order, test files last so production declarations come first.
func fixtureFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Slice(names, func(i, j int) bool {
		ti := strings.HasSuffix(names[i], "_test.go")
		tj := strings.HasSuffix(names[j], "_test.go")
		if ti != tj {
			return !ti
		}
		return names[i] < names[j]
	})
	return names, nil
}

// A want is one expected-diagnostic pattern at one line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, findings []analysis.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, pat := range parseWant(t, pos, c.Text) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  pat,
					})
				}
			}
		}
	}

	for _, fd := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == fd.Pos.Filename && w.line == fd.Pos.Line &&
				w.re.MatchString(fd.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", fd.Pos, fd.Message, fd.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// parseWant extracts the quoted patterns from a `// want` comment.
// Both "double-quoted" (unescaped via strconv) and `backquoted`
// literals are accepted.
func parseWant(t *testing.T, pos token.Position, text string) []string {
	t.Helper()
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(body, "want ") {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, "want"))
	var pats []string
	for rest != "" {
		switch rest[0] {
		case '"':
			end := matchDoubleQuote(rest)
			if end < 0 {
				t.Fatalf("%s: unterminated string in want comment", pos)
			}
			s, err := strconv.Unquote(rest[:end+1])
			if err != nil {
				t.Fatalf("%s: bad string in want comment: %v", pos, err)
			}
			pats = append(pats, s)
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated raw string in want comment", pos)
			}
			pats = append(pats, rest[1:1+end])
			rest = strings.TrimSpace(rest[end+2:])
		default:
			t.Fatalf("%s: want comment: expected quoted pattern, got %q", pos, rest)
		}
	}
	if len(pats) == 0 {
		t.Fatalf("%s: want comment with no patterns", pos)
	}
	return pats
}

// matchDoubleQuote returns the index of the closing quote of the
// double-quoted string starting at s[0], honoring backslash escapes.
func matchDoubleQuote(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
