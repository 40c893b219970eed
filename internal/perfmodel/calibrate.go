package perfmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file closes the loop between the functional layer's measured I/O
// and the analytic model: cmd/metbench emits BENCH_*.json artifacts with
// per-op-class latencies and compaction throughput measured on the real
// durable engine (fsynced WAL, SSTables), and Calibrate folds those
// measurements back into the CostModel so model-based experiments
// reflect real fsync/SSTable costs instead of assumed constants.

// BenchArtifact mirrors the fields of cmd/metbench's -json output that
// calibration consumes; unknown fields are ignored so the artifact
// format can keep growing.
type BenchArtifact struct {
	Workload   string             `json:"workload"`
	Durable    bool               `json:"durable"`
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	NsPerOp    float64            `json:"ns_per_op"`
	PerOp      map[string]int64   `json:"per_op"`
	PerOpNs    map[string]float64 `json:"per_op_ns"`
	Compaction *struct {
		BytesIn         int64 `json:"bytes_in"`
		BytesOut        int64 `json:"bytes_out"`
		CompactionNanos int64 `json:"compaction_ns"`
	} `json:"compaction"`
}

// LoadBenchArtifact parses a metbench -json artifact.
func LoadBenchArtifact(r io.Reader) (BenchArtifact, error) {
	var a BenchArtifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return a, fmt.Errorf("perfmodel: parse bench artifact: %w", err)
	}
	return a, nil
}

// Override records one calibrated constant.
type Override struct {
	Field    string
	Old, New float64
}

// CalibrationReport lists what Calibrate changed and why nothing more.
type CalibrationReport struct {
	Overrides []Override
	Skipped   []string
}

func (r *CalibrationReport) override(field string, old, new float64) {
	r.Overrides = append(r.Overrides, Override{Field: field, Old: old, New: new})
}

// Print writes a human-readable summary.
func (r CalibrationReport) Print(w io.Writer) {
	for _, o := range r.Overrides {
		fmt.Fprintf(w, "calibrated %-16s %12.3g -> %.3g\n", o.Field, o.Old, o.New)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(w, "skipped: %s\n", s)
	}
}

// Calibrate overrides m's cost constants with measurements from a
// durable-backend bench artifact:
//
//   - CPURead <- measured read latency (the in-process Get path: cache
//     lookup, index probe, block decode — no network, which ClientRTT
//     models separately);
//   - WriteSyncLatency <- measured write latency minus the CPU share,
//     i.e. the real fsync wait of the group-committed WAL;
//   - DiskBytesPerSec <- compaction throughput (bytes merged per second
//     of wall time inside CompactFiles), the honest sequential-I/O rate
//     of the machine the artifact came from.
//
// Only durable artifacts calibrate: an in-memory run measures no disk
// at all. Constants with no usable measurement keep their prior value,
// and every decision is reported.
func Calibrate(m CostModel, a BenchArtifact) (CostModel, CalibrationReport) {
	var rep CalibrationReport
	if !a.Durable {
		rep.Skipped = append(rep.Skipped, "artifact is not from the durable backend; nothing measured real disk")
		return m, rep
	}

	if readNs, ok := a.PerOpNs["read"]; ok && readNs > 0 {
		rep.override("CPURead", m.CPURead, readNs/1e9)
		m.CPURead = readNs / 1e9
	} else {
		rep.Skipped = append(rep.Skipped, "no read latency in artifact (write-only workload)")
	}

	// Weight update and insert together: both take the Put path.
	var writeNs, writeOps float64
	for _, op := range []string{"update", "insert"} {
		if ns, ok := a.PerOpNs[op]; ok && ns > 0 {
			n := float64(a.PerOp[op])
			writeNs += ns * n
			writeOps += n
		}
	}
	if writeOps > 0 {
		sync := writeNs/writeOps/1e9 - m.CPUWrite
		if sync < 0 {
			sync = 0
		}
		rep.override("WriteSyncLatency", m.WriteSyncLatency, sync)
		m.WriteSyncLatency = sync
	} else {
		rep.Skipped = append(rep.Skipped, "no write latency in artifact (read-only workload)")
	}

	if c := a.Compaction; c != nil && c.CompactionNanos > 0 && c.BytesIn+c.BytesOut > 0 {
		rate := float64(c.BytesIn+c.BytesOut) / (float64(c.CompactionNanos) / 1e9)
		rep.override("DiskBytesPerSec", m.DiskBytesPerSec, rate)
		m.DiskBytesPerSec = rate
	} else {
		rep.Skipped = append(rep.Skipped, "no compaction activity in artifact; disk throughput keeps its prior")
	}
	return m, rep
}

// CalibrateFromFile is Calibrate over a BENCH_*.json path.
func CalibrateFromFile(m CostModel, path string) (CostModel, CalibrationReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return m, CalibrationReport{}, err
	}
	defer f.Close()
	a, err := LoadBenchArtifact(f)
	if err != nil {
		return m, CalibrationReport{}, err
	}
	out, rep := Calibrate(m, a)
	return out, rep, nil
}

// calibratedDefault, when set via SetDefaultCostModel, replaces the
// paper-testbed constants in every subsequently built Model — the hook
// cmd/metsim's -calibrate flag uses. Set it once at startup; it is not
// synchronized.
var calibratedDefault *CostModel

// SetDefaultCostModel makes m the cost model NewModel hands out.
func SetDefaultCostModel(m CostModel) { calibratedDefault = &m }

// activeCostModel returns the calibrated override, or the paper
// defaults.
func activeCostModel() CostModel {
	if calibratedDefault != nil {
		return *calibratedDefault
	}
	return DefaultCostModel()
}
