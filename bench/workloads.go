package main

import (
	"strconv"

	"met/internal/sim"
	"met/internal/ycsb"
)

const (
	// heapBytes is ServerConfig.HeapBytes for every workload: 2 MiB per
	// server gives a 0.8 MB block cache per server (2.4 MB cluster, 12
	// blocks of 64 KB each) and a 0.5 MB memstore budget per server, so
	// a 10 s write_heavy pass flushes each region a dozen times and
	// compacts it at least once. The record counts below are sized
	// against this cache; change them together.
	heapBytes = 2 << 20
	// valueBytes is the paper's record size.
	valueBytes = 1000
	// maxScanRows is YCSB-E's scan length bound.
	maxScanRows = 100
)

// workload is one traffic mix. The servers see only the generated ops.
type workload struct {
	name    string
	why     string
	records int64
	hotspot bool // the paper's 50/40 hotspot; otherwise uniform
	// readOnly workloads must leave WAL, compaction and replication
	// counters untouched — the check that a write-path change cannot
	// move them.
	readOnly bool
	ycsb     ycsb.Workload
}

func (w *workload) table() string { return w.ycsb.TableName() }

func (w *workload) generator() ycsb.Generator {
	if w.hotspot {
		return ycsb.NewPaperHotspot(w.records)
	}
	return ycsb.NewUniform(w.records)
}

// workloads lists the benchmark's four traffic mixes; names are part of
// BENCHMARK.json.
func workloads() []*workload {
	ws := []*workload{
		{
			name: "read_hot", records: 800, hotspot: true, readOnly: true,
			why:  "100% Get over data a third of the block cache: engine work is a cache hit, so client latency is rpc + hbase routing; WAL, compaction and replication must show nothing",
			ycsb: ycsb.Workload{ReadProportion: 1},
		},
		{
			name: "read_cold", records: 10000, readOnly: true,
			why:  "100% uniform Get over data 4x the block cache: same rpc cost as read_hot, but bloom, index and durable block loads do the work",
			ycsb: ycsb.Workload{ReadProportion: 1},
		},
		{
			name: "write_heavy", records: 10000,
			why:  "100% uniform update: every op pays WAL append + fsync while flush, compaction and replication cycle on the same disk; read-path changes must not show",
			ycsb: ycsb.Workload{UpdateProportion: 1},
		},
		{
			name: "mixed_scan", records: 5000, hotspot: true,
			why:  "45% Get / 45% update / 10% Scan<=100 rows over data 2x the cache: reads beside writes, multi-row replies beside point ops; a gain bought on one path with cost on another shows here",
			ycsb: ycsb.Workload{ReadProportion: 0.45, UpdateProportion: 0.45, ScanProportion: 0.10},
		},
	}
	for _, w := range ws {
		w.ycsb.Name = w.name
		w.ycsb.RecordCount = w.records
		w.ycsb.FieldLengthBytes = valueBytes
		w.ycsb.MaxScanLength = maxScanRows
		w.ycsb.Partitions = numRegions
	}
	return ws
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// filler pads every value to valueBytes. It is fixed, not seeded: the
// seed picks the operations, and a constant tail lets a reader check
// all 1000 bytes of every value it gets back.
var filler = func() []byte {
	r := sim.NewRNG(1)
	b := make([]byte, valueBytes)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return b
}()

// makeValue renders the value for (key, version) into buf[:0] (a fresh
// slice when buf is nil): "<key>#<version, 10 digits>#" then filler up
// to valueBytes. Embedding both is what lets every read be checked
// against the last write this client saw acknowledged.
func makeValue(buf []byte, key string, version uint32) []byte {
	if buf == nil {
		buf = make([]byte, 0, valueBytes)
	}
	buf = append(buf[:0], key...)
	buf = append(buf, '#')
	var digits [10]byte
	v := strconv.AppendUint(digits[:0], uint64(version), 10)
	for i := len(v); i < 10; i++ {
		buf = append(buf, '0')
	}
	buf = append(buf, v...)
	buf = append(buf, '#')
	return append(buf, filler[len(buf):]...)
}

// valueVersion extracts the version from a value makeValue built for
// key, or false if the bytes are anything else.
func valueVersion(val []byte, key string) (uint32, bool) {
	head := len(key) + 12
	if len(val) != valueBytes || string(val[:len(key)]) != key || val[len(key)] != '#' || val[head-1] != '#' {
		return 0, false
	}
	v, err := strconv.ParseUint(string(val[len(key)+1:head-1]), 10, 32)
	if err != nil || string(val[head:]) != string(filler[head:]) {
		return 0, false
	}
	return uint32(v), true
}
