package perfmodel

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) BenchArtifact {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := LoadBenchArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The workload-A durable fixture has measured read and write latencies
// but no compaction activity: reads and the fsync premium calibrate,
// disk throughput keeps its prior.
func TestCalibrateFromWorkloadAArtifact(t *testing.T) {
	a := loadFixture(t, "BENCH_durable_A.json")
	base := DefaultCostModel()
	m, rep := Calibrate(base, a)

	wantRead := a.PerOpNs["read"] / 1e9
	if math.Abs(m.CPURead-wantRead) > 1e-12 {
		t.Fatalf("CPURead = %v, want measured %v", m.CPURead, wantRead)
	}
	wantSync := a.PerOpNs["update"]/1e9 - base.CPUWrite
	if math.Abs(m.WriteSyncLatency-wantSync) > 1e-12 {
		t.Fatalf("WriteSyncLatency = %v, want measured %v", m.WriteSyncLatency, wantSync)
	}
	if m.WriteSyncLatency <= 0 {
		t.Fatalf("fixture's durable writes are fsync-bound; premium must be positive, got %v", m.WriteSyncLatency)
	}
	if m.DiskBytesPerSec != base.DiskBytesPerSec {
		t.Fatalf("DiskBytesPerSec changed without compaction data: %v", m.DiskBytesPerSec)
	}
	if len(rep.Overrides) != 2 {
		t.Fatalf("overrides = %+v, want CPURead and WriteSyncLatency", rep.Overrides)
	}
	foundSkip := false
	for _, s := range rep.Skipped {
		if strings.Contains(s, "no compaction activity") {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Fatalf("missing skip reason for disk throughput: %+v", rep.Skipped)
	}
}

// The sustained-write fixture has real background-compaction activity:
// disk throughput calibrates from merged bytes per compaction second.
func TestCalibrateFromSustainedArtifact(t *testing.T) {
	a := loadFixture(t, "BENCH_durable_sustained.json")
	base := DefaultCostModel()
	m, rep := Calibrate(base, a)

	c := a.Compaction
	if c == nil || c.CompactionNanos <= 0 {
		t.Fatal("fixture must contain compaction activity")
	}
	wantRate := float64(c.BytesIn+c.BytesOut) / (float64(c.CompactionNanos) / 1e9)
	if math.Abs(m.DiskBytesPerSec-wantRate)/wantRate > 1e-9 {
		t.Fatalf("DiskBytesPerSec = %v, want %v", m.DiskBytesPerSec, wantRate)
	}
	// Workload B is write-only: CPURead must keep its prior.
	if m.CPURead != base.CPURead {
		t.Fatalf("CPURead changed without read measurements: %v", m.CPURead)
	}
	if len(rep.Overrides) != 2 { // WriteSyncLatency + DiskBytesPerSec
		t.Fatalf("overrides = %+v", rep.Overrides)
	}
}

// A non-durable artifact measured no disk; calibration must refuse it.
func TestCalibrateRejectsMemoryArtifact(t *testing.T) {
	base := DefaultCostModel()
	m, rep := Calibrate(base, BenchArtifact{Durable: false, PerOpNs: map[string]float64{"read": 500}})
	if m != base {
		t.Fatalf("memory artifact must not change the model")
	}
	if len(rep.Overrides) != 0 || len(rep.Skipped) == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// SetDefaultCostModel must reroute NewModel's constants (the metsim
// -calibrate hook) without touching DefaultCostModel itself.
func TestSetDefaultCostModel(t *testing.T) {
	defer func() { calibratedDefault = nil }()
	cm := DefaultCostModel()
	cm.DiskBytesPerSec = 42e6
	SetDefaultCostModel(cm)
	if got := NewModel().Cost.DiskBytesPerSec; got != 42e6 {
		t.Fatalf("NewModel cost = %v, want calibrated 42e6", got)
	}
	if DefaultCostModel().DiskBytesPerSec == 42e6 {
		t.Fatal("DefaultCostModel must stay the paper constants")
	}
}
