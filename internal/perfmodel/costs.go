// Package perfmodel is the timing layer of the reproduction: an analytic
// performance model of a multi-node HBase deployment driven by
// closed-loop clients. Where the functional layer (kv/hbase/hdfs)
// reproduces *what* the system does, this package reproduces *how fast*,
// using explicit mechanisms rather than curves fitted to the paper:
//
//   - per-node CPU, disk and network resources with service demands per
//     operation class;
//   - block-cache hit estimation from each region's key-popularity curve
//     and the node's configured cache size, with LRU churn from
//     co-located write traffic;
//   - memstore flush amortization (smaller memstore -> more flush and
//     compaction I/O per write);
//   - block-size effects (small blocks favor random reads, large blocks
//     favor scans);
//   - HDFS locality (remote reads pay network transfer and extra CPU);
//   - background disk load from major compactions;
//   - an approximate MVA solver for the closed-loop client population.
//
// The constants in CostModel are calibrated to the paper's testbed
// (Intel i3, 3 GB heap, one 7200 RPM SATA disk, switched GbE) so that
// absolute throughputs land in the paper's ranges; every experiment's
// *shape* comes from the mechanisms above.
package perfmodel

// CostModel holds hardware and software service-demand constants.
type CostModel struct {
	// CPU demands (seconds) per operation.
	CPURead  float64 // served from block cache
	CPUMiss  float64 // extra CPU per cache miss (decompress, copy)
	CPUWrite float64 // memstore insert + WAL append
	// CPUWriteBackground is the deferred CPU each write eventually
	// costs the node: minor compaction work and the JVM garbage
	// collection pressure of the write path. It is what makes a
	// write-heavy co-tenant slow down reads on the same node even when
	// the disk keeps up.
	CPUWriteBackground float64
	CPUScanSetup       float64 // per-scan fixed cost
	CPUScanRecord      float64 // per scanned record
	CPUScanBlock       float64 // per block touched by a scan (iteration overhead)

	// Disk characteristics.
	DiskSeek        float64 // seconds per random I/O
	DiskBytesPerSec float64
	// WALBytesFactor charges sequential WAL I/O per written byte.
	WALBytesFactor float64

	// Network characteristics (remote block fetches, replication).
	NetBytesPerSec float64
	NetRemoteRTT   float64 // per remote block fetch round trip

	// ClientRTT is the fixed client<->server round trip added to every
	// operation's response time.
	ClientRTT float64
	// ScanClientPerRecord is the client-side cost per scanned record
	// (YCSB streams scan results in batches and materializes every
	// row; the paper's measured scan latencies are tens of
	// milliseconds even on an idle cluster).
	ScanClientPerRecord float64
	// WriteSyncLatency is the per-write latency of the WAL sync to the
	// replicated HDFS pipeline (group commit keeps it off the server's
	// resource demands, but every client write waits for it).
	WriteSyncLatency float64

	// FlushRefBytes anchors write amplification: a memstore of this
	// size per region has amplification FlushAmpBase; smaller memstores
	// amplify more (more frequent flushes and compactions).
	FlushRefBytes float64
	FlushAmpBase  float64
	FlushAmpMax   float64

	// CacheChurn scales how strongly co-located write throughput
	// degrades cache effectiveness (LRU churn).
	CacheChurn float64

	// PageCacheBytes is the OS file-system cache per node (RAM left
	// over after the JVM heap plus what the flash/controller layer
	// effectively absorbs). Block-cache misses and scans are served
	// from it when the node's physically stored bytes fit; it suffers
	// the same write churn as the block cache. The paper's nodes have
	// 4 GB RAM and a 3 GB heap.
	PageCacheBytes float64
	// HostedReplicationFactor scales a node's logical hosted bytes to
	// the physical bytes competing for its page cache: with HDFS
	// replication 2, a datanode stores its own regions' primaries plus
	// other regions' secondaries.
	HostedReplicationFactor float64

	// FlushPressureStall converts a node's *flush pressure* — incoming
	// write bytes per second divided by its total memstore budget —
	// into a response-time stall added to every operation it serves:
	// the JVM garbage-collection and memstore-flush pauses of HBase's
	// write path. The stall grows with the square of the pressure, so
	// concentrating write-heavy partitions on a node with a small
	// (read-profile) memstore is much worse than spreading them, while
	// a write-profiled node (55% of the heap for memstores) absorbs
	// the same write rate with a fraction of the stall — the mechanism
	// behind both Table 1's write profile and the variance of the
	// paper's Random-Homogeneous runs. stall = FlushPressureStall *
	// (writeBytes/s / memstoreBytes)^2, capped at GCStallMax.
	FlushPressureStall float64
	GCStallMax         float64

	// OfflinePenalty is the response time charged to operations routed
	// to a region whose server is down (client retry/timeout loops).
	OfflinePenalty float64
}

// DefaultCostModel returns constants calibrated to the paper's testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		CPURead:                 50e-6,
		CPUMiss:                 100e-6,
		CPUWrite:                100e-6,
		CPUWriteBackground:      200e-6,
		CPUScanSetup:            250e-6,
		CPUScanRecord:           8e-6,
		CPUScanBlock:            100e-6,
		DiskSeek:                5e-3,
		DiskBytesPerSec:         100e6,
		WALBytesFactor:          2.0,
		NetBytesPerSec:          110e6,
		NetRemoteRTT:            350e-6,
		ClientRTT:               1.2e-3,
		ScanClientPerRecord:     0.5e-3,
		WriteSyncLatency:        3.5e-3,
		FlushRefBytes:           512e6,
		FlushAmpBase:            2.0,
		FlushAmpMax:             12,
		CacheChurn:              3,
		PageCacheBytes:          2.2e9,
		HostedReplicationFactor: 2,
		FlushPressureStall:      550,
		GCStallMax:              25e-3,
		OfflinePenalty:          1.5,
	}
}
