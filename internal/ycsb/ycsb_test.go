package ycsb

import (
	"fmt"
	"math"
	"testing"

	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/sim"
)

func TestUniformCoversRange(t *testing.T) {
	g := NewUniform(100)
	r := sim.NewRNG(1)
	seen := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		k := g.Next(r)
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 keys", len(seen))
	}
	if g.N != 100 {
		t.Fatal("count wrong")
	}
}

func TestHotspotPaperShape(t *testing.T) {
	// 50% of requests to the first 40% of the key space.
	g := NewPaperHotspot(10000)
	r := sim.NewRNG(2)
	hot := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if g.Next(r) < 4000 {
			hot++
		}
	}
	frac := float64(hot) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("hot traffic fraction = %v, want ~0.5", frac)
	}
}

func TestHotspotDegenerate(t *testing.T) {
	g := &Hotspot{N: 1, HotsetFraction: 0.4, HotOpnFraction: 0.5}
	r := sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		if k := g.Next(r); k != 0 {
			t.Fatalf("key = %d", k)
		}
	}
	// Hot set spanning everything.
	g = &Hotspot{N: 10, HotsetFraction: 1.0, HotOpnFraction: 0.5}
	for i := 0; i < 100; i++ {
		if k := g.Next(r); k < 0 || k >= 10 {
			t.Fatalf("key = %d", k)
		}
	}
}

func TestPaperWorkloadsValid(t *testing.T) {
	ws := PaperWorkloads()
	if len(ws) != 6 {
		t.Fatalf("%d workloads", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s invalid: %v", w.Name, err)
		}
	}
	byName := map[string]Workload{}
	for _, w := range ws {
		byName[w.Name] = w
	}
	if byName["B"].UpdateProportion != 1.0 {
		t.Error("B must be 100% update per the paper's modification")
	}
	if byName["D"].InsertProportion != 0.95 || byName["D"].ReadProportion != 0.05 {
		t.Error("D must be 5/95 read/insert per the paper's modification")
	}
	if byName["D"].RecordCount != 100_000 || byName["D"].Partitions != 1 ||
		byName["D"].Threads != 5 || byName["D"].TargetOpsPerSec != 1500 {
		t.Errorf("D parameters wrong: %+v", byName["D"])
	}
	if byName["E"].ScanProportion != 0.95 {
		t.Error("E must be 95% scan")
	}
	if byName["C"].ReadProportion != 1.0 {
		t.Error("C must be 100% read")
	}
	if byName["A"].Threads != 50 || byName["A"].Partitions != 4 || byName["A"].RecordCount != 1_000_000 {
		t.Errorf("A parameters wrong: %+v", byName["A"])
	}
}

func TestOverallReadWriteRatio(t *testing.T) {
	// Section 3.1: proportions were tuned for an overall read/write
	// ratio of roughly 1.9:1 across the six workloads. The ratio is
	// throughput-weighted in the paper; weighting each workload by its
	// client thread count approximates that.
	var reads, writes float64
	for _, w := range PaperWorkloads() {
		th := float64(w.Threads)
		reads += th * (w.ReadFraction() + w.ScanFraction())
		writes += th * w.WriteFraction()
	}
	ratio := reads / writes
	if ratio < 1.3 || ratio > 2.3 {
		t.Fatalf("overall read/write ratio = %v, expected near 1.9", ratio)
	}
}

func TestWorkloadValidateErrors(t *testing.T) {
	w := Workload{Name: "X", ReadProportion: 0.5, RecordCount: 10, Partitions: 1}
	if w.Validate() == nil {
		t.Fatal("proportions not summing to 1 accepted")
	}
	w = Workload{Name: "X", ReadProportion: 1, RecordCount: 0, Partitions: 1}
	if w.Validate() == nil {
		t.Fatal("zero records accepted")
	}
	w = Workload{Name: "X", ReadProportion: 1, RecordCount: 10, Partitions: 0}
	if w.Validate() == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestSplitKeysEqualRegions(t *testing.T) {
	w := PaperWorkloads()[0] // A: 1M records, 4 partitions
	keys := w.SplitKeys()
	if len(keys) != 3 {
		t.Fatalf("split keys = %v", keys)
	}
	if keys[0] != w.Key(250_000) || keys[1] != w.Key(500_000) || keys[2] != w.Key(750_000) {
		t.Fatalf("split keys = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("split keys not sorted")
		}
	}
}

func TestKeyOrderingMatchesNumeric(t *testing.T) {
	w := PaperWorkloads()[0]
	if w.Key(9) >= w.Key(10) || w.Key(999_999) >= w.Key(1_000_000) {
		t.Fatal("key encoding breaks lexicographic order")
	}
}

func TestNextOpProportions(t *testing.T) {
	w := PaperWorkloads()[3] // D: 5% read, 95% insert
	r := sim.NewRNG(7)
	counts := map[OpType]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.NextOp(r)]++
	}
	if frac := float64(counts[OpInsert]) / n; math.Abs(frac-0.95) > 0.01 {
		t.Fatalf("insert fraction = %v", frac)
	}
	if frac := float64(counts[OpRead]) / n; math.Abs(frac-0.05) > 0.01 {
		t.Fatalf("read fraction = %v", frac)
	}
	if counts[OpScan] != 0 || counts[OpUpdate] != 0 {
		t.Fatalf("unexpected ops: %v", counts)
	}
}

func TestPartitionSharesPaperShape(t *testing.T) {
	w := PaperWorkloads()[0]
	shares := w.PartitionShares()
	if len(shares) != 4 {
		t.Fatalf("shares = %v", shares)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// Paper's shape: one hotspot (~34%), one intermediate (~26%), two
	// equal cold partitions (~20% each), descending.
	if !(shares[0] > shares[1] && shares[1] > shares[2]) {
		t.Fatalf("shares not descending: %v", shares)
	}
	if math.Abs(shares[2]-shares[3]) > 1e-9 {
		t.Fatalf("cold shares differ: %v", shares)
	}
	if shares[0] < 0.29 || shares[0] > 0.36 {
		t.Fatalf("hot share = %v, want ~0.31-0.34", shares[0])
	}
	// Empirical check: sampled hotspot traffic matches the analytic
	// shares within 2%.
	g := NewPaperHotspot(w.RecordCount)
	r := sim.NewRNG(8)
	got := make([]float64, 4)
	const n = 200000
	per := w.RecordCount / 4
	for i := 0; i < n; i++ {
		got[g.Next(r)/per]++
	}
	for i := range got {
		got[i] /= n
		if math.Abs(got[i]-shares[i]) > 0.02 {
			t.Fatalf("partition %d: sampled %v vs analytic %v", i, got[i], shares[i])
		}
	}
}

func TestPartitionSharesSinglePartition(t *testing.T) {
	w := PaperWorkloads()[3] // D has one partition
	shares := w.PartitionShares()
	if len(shares) != 1 || math.Abs(shares[0]-1) > 1e-9 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestOpTypeString(t *testing.T) {
	for _, o := range []OpType{OpRead, OpUpdate, OpInsert, OpScan, OpReadModifyWrite} {
		if o.String() == "" {
			t.Fatal("empty op string")
		}
	}
	if OpType(42).String() == "" {
		t.Fatal("unknown op empty")
	}
}

// newTestCluster spins up a small functional cluster.
func newTestCluster(t *testing.T, servers int) (*hbase.Master, *hbase.Client) {
	t.Helper()
	m := hbase.NewMaster(hdfs.NewNamenode(2))
	for i := 0; i < servers; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), hbase.DefaultServerConfig()); err != nil {
			t.Fatal(err)
		}
	}
	return m, hbase.NewClient(m)
}

func TestRunnerEndToEnd(t *testing.T) {
	m, c := newTestCluster(t, 3)
	w := PaperWorkloads()[0] // A
	w.RecordCount = 2000     // shrink for test speed
	w.FieldLengthBytes = 64
	r, err := NewRunner(w, c, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTable(m); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(2000); err != nil {
		t.Fatal(err)
	}
	if r.TotalCompleted() != 2000 {
		t.Fatalf("completed = %d", r.TotalCompleted())
	}
	done := r.Completed()
	if done[OpRead] == 0 || done[OpUpdate] == 0 {
		t.Fatalf("op mix missing kinds: %v", done)
	}
	if r.Errors() != 0 {
		t.Fatalf("errors = %d", r.Errors())
	}
}

func TestRunnerInsertsGrowKeyspace(t *testing.T) {
	m, c := newTestCluster(t, 1)
	w := PaperWorkloads()[3] // D: insert heavy
	w.RecordCount = 500
	w.FieldLengthBytes = 32
	r, _ := NewRunner(w, c, 1, 10)
	r.CreateTable(m)
	r.Load(0)
	start := r.inserts.Load()
	if err := r.Run(1000); err != nil {
		t.Fatal(err)
	}
	if r.inserts.Load() <= start {
		t.Fatal("keyspace did not grow")
	}
	grown := r.inserts.Load() - start
	if float64(grown) < 900 {
		t.Fatalf("inserted %d of ~950 expected", grown)
	}
}

func TestRunnerScansWork(t *testing.T) {
	m, c := newTestCluster(t, 2)
	w := PaperWorkloads()[4] // E: scan heavy
	w.RecordCount = 1000
	w.FieldLengthBytes = 32
	r, _ := NewRunner(w, c, 1, 11)
	r.CreateTable(m)
	r.Load(0)
	if err := r.Run(300); err != nil {
		t.Fatal(err)
	}
	if r.Completed()[OpScan] == 0 {
		t.Fatal("no scans completed")
	}
}

func TestRunnerLoadPartial(t *testing.T) {
	m, c := newTestCluster(t, 1)
	w := PaperWorkloads()[2]
	w.RecordCount = 10000
	w.FieldLengthBytes = 16
	r, _ := NewRunner(w, c, 1, 12)
	r.CreateTable(m)
	if err := r.Load(100); err != nil {
		t.Fatal(err)
	}
	// Reads against sparse load do not error (misses are benign).
	if err := r.Run(200); err != nil {
		t.Fatal(err)
	}
}
