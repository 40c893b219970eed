package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the tables the
// program emits from (regenerate it with `bench -spec`).
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if !bytes.Equal(bytes.TrimSpace(onDisk), want) {
		t.Fatalf("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	seen := map[string]bool{}
	sp := benchmarkSpec()
	names := []string{}
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for _, d := range append(append([]metricDef{}, sp.EndToEnd...), sp.PerLayer...) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

// TestQuickSmoke runs every workload in -quick mode (all nodes hosted in
// this process, a quarter second per phase) with the traced pass, whose
// record holds both metric sets, and checks what the contract checks:
// each result line carries exactly the declared metrics, every op
// verified, nothing lost across the kill, and the read-only workloads
// left the write path untouched.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads() {
		o := options{seed: 7, seconds: 0.5, trace: true, quick: true, workDir: t.TempDir()}
		rec, err := runWorkload(o, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%q",
				w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Checks)
		}
		for _, trace := range []bool{false, true} {
			var line struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rec.resultLine(trace)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(declared(trace)) {
				t.Errorf("%s trace=%v: %d metrics in the result line, %d declared", w.name, trace, len(line.Metrics), len(declared(trace)))
			}
			for _, def := range declared(trace) {
				got, ok := line.Metrics[def.Name]
				if !ok || got.Value == nil || got.Unit != def.Unit {
					t.Errorf("%s trace=%v: metric %s missing or with the wrong unit", w.name, trace, def.Name)
				} else if !trace && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, def.Name, *got.Value)
				}
			}
		}
		if w.readOnly {
			for _, name := range []string{"kv.flushes", "compaction.compactions", "durable.wal_bytes_per_put",
				"replication.bytes_shipped_per_user_byte", "replication.tail_ships_per_kput"} {
				if v := rec.Metrics[name]; v != 0 {
					t.Errorf("%s: %s = %v on a read-only workload", w.name, name, v)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestQuietWindows(t *testing.T) {
	ws := make([]window, 8)
	for i := range ws {
		ws[i] = window{Ops: i, StealShare: 0.002}
	}
	if got := quietWindows(ws); len(got) != 8 {
		t.Fatalf("an undisturbed phase kept %d of 8 windows", len(got))
	}
	ws[1].StealShare, ws[6].StealShare = 0.3, 0.02
	if got := quietWindows(ws); len(got) != 6 || got[5].StealShare > maxStealShare {
		t.Fatalf("two disturbed windows: kept %v", got)
	}
	for i := range ws {
		ws[i].StealShare = 0.1 + float64(i)/100
	}
	if got := quietWindows(ws); len(got) != 2 || got[0].Ops != 0 || got[1].Ops != 1 {
		t.Fatalf("a wholly disturbed phase must keep its least disturbed quarter, kept %v", got)
	}
}

func TestCompareFlagsRegressionAndUnresolved(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops []float64) string {
		var recs []*record
		for i, v := range ops {
			m := map[string]float64{}
			for _, def := range endToEnd {
				m[def.Name] = 100
			}
			m["ops_per_s"] = v
			recs = append(recs, &record{Workload: "read_hot", Seed: uint64(i), Correct: true, Metrics: m})
		}
		b, _ := json.Marshal(recs)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", []float64{1000, 1001, 1002, 1003})
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, specPath, base, write("same.json", []float64{990, 991, 992, 993})); err != nil || regressed {
		t.Fatalf("1%% slower flagged as a regression (err %v):\n%s", err, out.String())
	}
	if regressed, err := compareFiles(&out, specPath, base, write("slow.json", []float64{500, 501, 502, 503})); err != nil || !regressed {
		t.Fatalf("half the throughput not flagged (err %v):\n%s", err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, specPath, base, write("noisy.json", []float64{200, 500, 900, 1400})); err != nil || regressed ||
		!bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Fatalf("a spread wider than the bound must read unresolved (err %v):\n%s", err, out.String())
	}
}
