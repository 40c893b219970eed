// Package hbase implements the NoSQL database substrate of the
// reproduction: a functional, single-process re-creation of the HBase
// architecture the paper manages — HTables horizontally partitioned into
// Regions, Regions hosted by RegionServers whose block cache / memstore /
// block size are configurable per server, a Master that assigns regions
// with the randomized out-of-the-box balancer the paper criticizes, and
// a client that routes operations by key.
//
// RegionServers are co-located with simulated HDFS datanodes
// (met/internal/hdfs): flushed and compacted region files are written
// "locally", moves leave files behind, and each server exposes the
// locality index MeT monitors. Reconfiguration requires a server restart,
// matching the HBase limitation the paper identifies as the dominant
// actuation cost.
//
// Each server also owns a background compaction pool
// (met/internal/compaction) shared across its regions: flushes enqueue
// over-threshold stores, MajorCompact (the MeT actuator's operation)
// enters the same queue at high priority, and all compaction I/O is
// rate-limited by a token-bucket budget shared with the serving path —
// so maintenance never runs under a store's write lock and never
// starves foreground fsyncs.
//
// # Concurrency model
//
// The serving path is concurrent end to end: any number of goroutines
// may issue Get/Put/Delete/Scan through a Client or directly against a
// RegionServer. Routing takes no lock: a Client (like Master.HostOf and
// Master.Table) loads the route table the last layout commit published,
// one atomic pointer, and only the server lookup takes Master.mu shared.
// Each server's per-table sorted region index sits behind its own
// reader/writer lock; topology mutations (open/close, restarts) take
// the exclusive side. Request counters — per server and per region —
// are sync/atomic counters, so the Monitor can sample them without ever
// stalling serving. Lock ordering, outermost first: Master.mu, then
// RegionServer.mu, then Region.mu, then the kv.Store locks; no call
// path acquires them in the reverse direction, and LayoutMaster.mu is
// never taken under Master.mu. A move is make-before-break, so an
// operation racing one never fails. Operations racing a restart or a
// split fail with ErrServerStopped, ErrWrongRegionServer or kv.ErrClosed
// and never observe torn or lost data (migration paths seal the source
// store before copying, so an acknowledged write is either copied or
// was never acknowledged). The Client re-routes on ErrWrongRegionServer
// and kv.ErrClosed — once, and again while the layout keeps changing
// under the operation — which absorbs routes that went stale during
// moves and a split's retired parent;
// ErrServerStopped during a restart surfaces to the caller, whose retry
// policy is out of scope here, as with real HBase clients.
package hbase

import (
	"fmt"
	"time"
)

// ServerConfig carries the per-node tuning knobs from Section 2 of the
// paper. Cache and memstore are expressed as fractions of the Java heap,
// and their sum must not exceed 65% of it (the constraint HBase documents
// and Table 1 respects).
type ServerConfig struct {
	// HeapBytes is the region server heap (3 GB in the paper). It is
	// the machine's, not a profile's: WithProfile keeps it, and the
	// fractions below divide it.
	HeapBytes int64
	// BlockCacheFraction of the heap for the read block cache.
	BlockCacheFraction float64
	// MemstoreFraction of the heap shared by region memstores.
	MemstoreFraction float64
	// BlockBytes is the HFile block size (64 KB default; 32 KB favors
	// random reads, 128 KB favors scans).
	BlockBytes int
	// Handlers is the RPC handler count (default 10): the CPU capacity
	// SystemUsage divides a server's op time by. Nothing enforces it,
	// so more concurrent ops than Handlers read as a full CPU.
	Handlers int
	// DataDir, when non-empty, switches every region store hosted by
	// this server to the durable disk backend (met/internal/durable):
	// group-committed WAL plus SSTables under DataDir/regions/<region>.
	// Region directories are keyed by region name, not server, so
	// region moves keep their data and a restart recovers from disk.
	// Empty (the default) keeps stores in memory, as the paper's
	// simulated experiments do.
	DataDir string
	// Compaction tunes the server-wide background compaction subsystem
	// (met/internal/compaction). Like DataDir it is a deployment
	// property, not a paper tuning knob: WithProfile carries it across
	// profile changes unchanged. The zero value means defaults.
	Compaction CompactionConfig
	// SlowOpThreshold arms per-op tracing (met/internal/obs): an
	// operation that takes at least this long lands in the server's
	// slow-op ring buffer with its per-stage spans (routing, memstore,
	// bloom, block cache, SSTable reads, WAL append/sync, flush). Zero
	// (the default) disables tracing entirely — the serving path then
	// pays only a nil check per stage. Like DataDir and Compaction this
	// is a deployment property WithProfile carries across profiles.
	SlowOpThreshold time.Duration
}

// CompactionConfig exposes the background compaction knobs through the
// server configuration instead of hard-coded kv.Config defaults. All
// zero values select defaults; explicit negatives disable.
type CompactionConfig struct {
	// MaxStoreFiles is the per-store soft threshold: a flush that
	// leaves more files than this enqueues the store for background
	// compaction. 0 defaults to 8 (the engine default); negative
	// disables automatic compaction.
	MaxStoreFiles int
	// StallStoreFiles is the hard ceiling at which writers stall until
	// compaction catches up (HBase's blockingStoreFiles). 0 defaults to
	// 3×MaxStoreFiles; negative disables stalling.
	StallStoreFiles int
	// BudgetBytesPerSec rate-limits background compaction I/O through
	// the token-bucket budget shared with the serving path. 0 means
	// unlimited.
	BudgetBytesPerSec int64
	// Workers is the compactor pool size; 0 or less means the pool's
	// default, 1.
	Workers int
	// Policy selects the file-selection policy: "tiered" (merge
	// everything over the threshold — the engine's historical behavior,
	// and the default) or "leveled" (incremental merges of the
	// cheapest overlapping run).
	Policy string
}

// Validate checks the compaction knobs. The stall ceiling must sit
// above the *effective* soft threshold (0 means the engine default of
// 8): a ceiling at or below it would park writers on a gate that no
// compaction is ever queued to release.
func (c CompactionConfig) Validate() error {
	switch c.Policy {
	case "", "tiered", "leveled":
	default:
		return fmt.Errorf("hbase: unknown compaction policy %q", c.Policy)
	}
	if c.StallStoreFiles > 0 {
		if c.MaxStoreFiles < 0 {
			return fmt.Errorf("hbase: stall ceiling %d with automatic compaction disabled would wedge writers",
				c.StallStoreFiles)
		}
		soft := c.MaxStoreFiles
		if soft == 0 {
			soft = 8 // the engine default the zero value resolves to
		}
		if c.StallStoreFiles <= soft {
			return fmt.Errorf("hbase: stall ceiling %d must exceed the soft threshold %d",
				c.StallStoreFiles, soft)
		}
	}
	return nil
}

// DefaultServerConfig mirrors an out-of-the-box tuned HBase node per the
// paper's Random-Homogeneous strategy: 60% of memory for reads and 40%
// for writes, interpreted — as Table 1's profiles confirm, all summing to
// exactly 65% — as a 60/40 split of the 65% tunable heap budget.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		HeapBytes:          3 << 30,
		BlockCacheFraction: 0.60 * 0.65, // = 39% of heap
		MemstoreFraction:   0.40 * 0.65, // = 26% of heap
		BlockBytes:         64 << 10,
		Handlers:           10,
	}
}

// Validate checks the 65% heap rule and basic sanity.
func (c ServerConfig) Validate() error {
	if c.HeapBytes <= 0 {
		return fmt.Errorf("hbase: non-positive heap %d", c.HeapBytes)
	}
	if c.BlockCacheFraction < 0 || c.MemstoreFraction < 0 {
		return fmt.Errorf("hbase: negative memory fraction")
	}
	if sum := c.BlockCacheFraction + c.MemstoreFraction; sum > 0.651 {
		return fmt.Errorf("hbase: cache+memstore = %.0f%% of heap exceeds the 65%% rule", sum*100)
	}
	if c.BlockBytes <= 0 {
		return fmt.Errorf("hbase: non-positive block size %d", c.BlockBytes)
	}
	if c.Handlers <= 0 {
		return fmt.Errorf("hbase: non-positive handler count %d", c.Handlers)
	}
	if c.SlowOpThreshold < 0 {
		return fmt.Errorf("hbase: negative slow-op threshold %v", c.SlowOpThreshold)
	}
	return c.Compaction.Validate()
}

// BlockCacheBytes returns the absolute block cache capacity.
func (c ServerConfig) BlockCacheBytes() int64 {
	return int64(float64(c.HeapBytes) * c.BlockCacheFraction)
}

// MemstoreBytes returns the absolute memstore budget.
func (c ServerConfig) MemstoreBytes() int64 {
	return int64(float64(c.HeapBytes) * c.MemstoreFraction)
}

// WithProfile returns c with a profile's four paper knobs —
// BlockCacheFraction, MemstoreFraction, BlockBytes and Handlers — and
// every other field of c kept: HeapBytes, DataDir, Compaction and the
// slow-op settings are deployment properties that survive a re-profile.
func (c ServerConfig) WithProfile(p ServerConfig) ServerConfig {
	c.BlockCacheFraction, c.MemstoreFraction = p.BlockCacheFraction, p.MemstoreFraction
	c.BlockBytes, c.Handlers = p.BlockBytes, p.Handlers
	return c
}

// String summarises the config as "cache/memstore/block".
func (c ServerConfig) String() string {
	return fmt.Sprintf("cache=%.0f%% memstore=%.0f%% block=%dKB handlers=%d",
		c.BlockCacheFraction*100, c.MemstoreFraction*100, c.BlockBytes>>10, c.Handlers)
}
