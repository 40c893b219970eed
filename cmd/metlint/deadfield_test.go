package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadFieldFindsReplantedDefects re-plants, in a copy of the
// module, three dead fields that were found by reading the code and
// deleted, and requires the standalone mode to report exactly those:
// meteredWriter.throttle (read, never set), CostModel.UtilizationCap
// (set, never read) and ServerConfig.SlowOpLogSize (set only by a
// test). The last two are exported, so only the module-wide check sees
// them.
func TestDeadFieldFindsReplantedDefects(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a copy of the whole module")
	}
	root := copyModule(t, filepath.Join("..", ".."))
	for _, m := range []struct{ file, old, new string }{
		{"internal/durable/metered.go",
			"\taccount func(bytes int)\n}",
			"\taccount func(bytes int)\n\tthrottle func(bytes int)\n}"},
		{"internal/durable/metered.go",
			"\tn, err := m.w.Write(p)",
			"\tif m.throttle != nil {\n\t\tm.throttle(len(p))\n\t}\n\tn, err := m.w.Write(p)"},
		{"internal/perfmodel/costs.go",
			"\tOfflinePenalty float64\n",
			"\tOfflinePenalty float64\n\tUtilizationCap float64\n"},
		{"internal/perfmodel/costs.go",
			"\t\tOfflinePenalty:          1.5,\n",
			"\t\tOfflinePenalty:          1.5,\n\t\tUtilizationCap: 0.985,\n"},
		{"internal/hbase/config.go",
			"\tSlowOpThreshold time.Duration\n}",
			"\tSlowOpThreshold time.Duration\n\tSlowOpLogSize int\n}"},
		{"internal/hbase/config.go",
			"\tif c.HeapBytes <= 0 {",
			"\tif c.SlowOpLogSize < 0 {\n\t\treturn fmt.Errorf(\"hbase: negative slow-op log size %d\", c.SlowOpLogSize)\n\t}\n\tif c.HeapBytes <= 0 {"},
		{"internal/hbase/telemetry_test.go",
			"\tcfg.SlowOpThreshold = time.Nanosecond // everything is slow\n",
			"\tcfg.SlowOpThreshold = time.Nanosecond // everything is slow\n\tcfg.SlowOpLogSize = 8\n"},
	} {
		path := filepath.Join(root, m.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), m.old) {
			t.Fatalf("%s no longer contains %q: re-aim the mutation", m.file, m.old)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Chdir(root)
	findings, err := lint(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"internal/durable/metered.go": "field throttle is read but never set outside tests",
		"internal/perfmodel/costs.go": "field UtilizationCap is set but never read outside tests",
		"internal/hbase/config.go":    "field SlowOpLogSize is read but never set outside tests",
	}
	for _, f := range findings {
		file, _ := filepath.Rel(root, f.Pos.Filename)
		if want[filepath.ToSlash(file)] == f.Message && f.Analyzer == "deadfield" {
			delete(want, filepath.ToSlash(file))
			continue
		}
		t.Errorf("unexpected finding %s: %s (%s)", f.Pos, f.Message, f.Analyzer)
	}
	for file, msg := range want {
		t.Errorf("%s: no finding %q", file, msg)
	}
}

// copyModule copies the module's Go files and go.mod under dir into a
// temporary directory, leaving out hidden directories, testdata and
// the nested bench module.
func copyModule(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(path, ".go") && rel != "go.mod" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
