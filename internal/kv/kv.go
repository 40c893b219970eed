// Package kv implements the storage engine underlying the simulated HBase
// region server: an LSM-style store with an in-memory memstore
// (skiplist), immutable block-organized store files, an LRU block cache
// with byte accounting, a write-ahead log, flushes, minor/major
// compactions, and merged iterators for scans.
//
// The engine mirrors the knobs the paper tunes per node profile:
//
//   - memstore flush threshold (memstore size),
//   - block cache capacity (block cache size),
//   - block size (random-read vs sequential-scan trade-off).
//
// It is a real store — data written is data served — so the functional
// layer of the reproduction (examples, unit and property tests) runs
// against genuine reads, writes, scans, flushes and compactions.
//
// # Storage backends
//
// Store files are views over a pluggable BlockSource, and the whole
// persistence layer hangs off one StorageBackend interface: with a nil
// backend (NewStore) files live on the heap and nothing is logged; with
// a durable backend (OpenStore + Config.OpenBackend, implemented by
// met/internal/durable) flushes and compactions write real SSTables,
// mutations are logged to an fsynced WAL before acknowledgement, and
// OpenStore recovers both on restart. The engine code path — the one
// write path, cache, index, iterators, compaction — is identical either
// way; the log is the one WAL interface, whose only implementation is
// the durable one.
//
// # Concurrency model
//
// A Store is safe for concurrent use by any number of goroutines. Its
// reader/writer lock lets Gets proceed in parallel over the immutable
// store-file stack and the memstore, while Puts, Deletes, flushes,
// compaction splices and Close serialize as exclusive writers. Scan holds the read
// lock only long enough to snapshot the memstore pointer and the file
// stack, then iterates lock-free: store files are immutable, the file
// stack is replaced rather than mutated, and the memstore skiplist
// publishes nodes through atomic pointers, so a long scan never stalls
// the write path. The BlockCache is internally locked (every lookup
// mutates LRU recency) and may be shared across stores; the engine
// counters behind Stats are atomics. Lock ordering is Store.mu before
// BlockCache.mu — the cache never calls back into a store, so the order
// cannot invert. Writers buffer into the WAL and apply under the write
// lock but wait for the shared fsync outside it, so concurrent writers
// batch their durability cost (group commit).
//
// # Background compaction
//
// Compaction I/O never runs under the store write lock. CompactFiles
// merges a selected contiguous run of files in three phases — snapshot
// under a brief read lock, merge and persist with no lock held
// (rate-limited by the host's IOBudget), splice under a brief write
// lock — so Gets, Puts and Scans proceed throughout a compaction. That
// is the only merge implementation; the store's Host decides only which
// goroutine runs it. With a Host.Compactor, a flush that pushes the
// file count over MaxStoreFiles fires the trigger (outside all locks)
// and a scheduler (met/internal/compaction) plans and executes
// CompactFiles on worker goroutines; at Host.HardMaxStoreFiles writers
// stall — outside the locks, bounded by StallTimeout, accounted in
// Stats.StallNanos — until compaction catches up. Without one (the
// catalog store, in-memory stores), the write or Flush whose flush
// crossed the threshold merges the whole stack itself, after releasing
// the write lock and before returning, and reports a failure as that
// call's error; such a store never stalls, having nothing asynchronous
// to wait for.
//
// The cumulative Stats fields live in the Host's Counters, not in the
// store, so a server whose stores share one Counters counts what
// happened on it, and no move or restart lowers them.
//
// # Static analysis & invariants
//
// The concurrency contract above is machine-checked: cmd/metlint (an
// in-repo go/analysis-style suite, run by CI as `go vet -vettool`)
// fails the build when code violates it. The invariants it enforces
// here:
//
//   - locksafe: no blocking call (file I/O, fsync, time.Sleep,
//     Budget.WaitBackground, CompactFiles, ...) and no channel
//     send/receive while Store.mu is held. This is what keeps Gets
//     behind a flush or compaction fast — the only waits allowed under
//     the lock are memory-speed.
//   - atomicfield: a field accessed through sync/atomic anywhere is
//     accessed through sync/atomic everywhere; atomic.* typed fields
//     are never copied or read as plain values. The Stats counters and
//     the skiplist's published pointers rely on this.
//   - nolockcopy: no function receives or returns a Store (or anything
//     embedding a sync primitive) by value.
//   - syncerr: the error from WAL.AppendBuffered and
//     StorageBackend.Close is never silently discarded — dropping it
//     would acknowledge a write that never became durable.
//
// The analyzers are intraprocedural: they see a lock and its critical
// section within one function body. Helpers that lock on behalf of a
// caller are outside their scope, which is why the engine keeps
// lock/unlock pairs and the guarded work in the same function. Real
// exceptions carry an inline `//lint:allow <analyzer> <reason>`; the
// reason is mandatory and reviewed, not boilerplate.
package kv

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	// ErrNotFound is returned by Get when the key has no live version.
	ErrNotFound = errors.New("kv: key not found")
	// ErrClosed is returned when operating on a closed store.
	ErrClosed = errors.New("kv: store closed")
)

// Entry is one versioned cell. HBase's model is (row, column, timestamp)
// -> value; the reproduction flattens row+column into Key, which is what
// the paper's YCSB usage does too (single column family, one field blob).
type Entry struct {
	Key       string
	Value     []byte
	Timestamp uint64
	Tombstone bool
}

// Size returns the approximate heap footprint of the entry in bytes,
// used for memstore accounting and block packing.
func (e Entry) Size() int { return len(e.Key) + len(e.Value) + 16 }

// String implements fmt.Stringer for debugging.
func (e Entry) String() string {
	if e.Tombstone {
		return fmt.Sprintf("%s@%d<deleted>", e.Key, e.Timestamp)
	}
	return fmt.Sprintf("%s@%d=%dB", e.Key, e.Timestamp, len(e.Value))
}

// supersedes reports whether e should shadow other for the same key:
// newer timestamps win; on a timestamp tie the later write (which the
// store tracks via sequence numbers folded into the timestamp) wins.
func (e Entry) supersedes(other Entry) bool { return e.Timestamp >= other.Timestamp }

// Iterator walks entries in ascending key order. Next returns false when
// exhausted. The same Entry memory may be reused between calls; callers
// that retain entries must copy them.
type Iterator interface {
	// Next advances to the next entry, returning false at the end.
	Next() bool
	// Entry returns the current entry. Only valid after Next returned true.
	Entry() Entry
}

// Stats aggregates engine activity counters. All but the gauges
// (MemstoreCurrent, CompactionQueueDepth) are cumulative over the life
// of the Counters they were read from (see Host).
type Stats struct {
	Gets            int64 `json:"gets"`
	Puts            int64 `json:"puts"`
	Deletes         int64 `json:"deletes"`
	Scans           int64 `json:"scans"`
	ScannedEntries  int64 `json:"scanned_entries"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	Flushes         int64 `json:"flushes"`
	FlushedBytes    int64 `json:"flushed_bytes"`
	Compactions     int64 `json:"compactions"`
	CompactedBytes  int64 `json:"compacted_bytes"`
	BlocksRead      int64 `json:"blocks_read"`
	FilterNegatives int64 `json:"filter_negatives"` // Gets answered "absent" by a file filter, no block read
	MemstoreCurrent int64 `json:"memstore_current"`

	// UserBytes is the logical payload written by Put/Delete/Import —
	// the denominator of write amplification.
	UserBytes int64 `json:"user_bytes"`
	// CompactionBytesWritten is the total size of files produced by
	// compactions (minor and major).
	CompactionBytesWritten int64 `json:"compaction_bytes_written"`
	// StallNanos is the cumulative time writers spent blocked on the
	// hard store-file ceiling waiting for background compaction to
	// catch up, the stalls still under way included. Reported, never
	// hidden: a stalled serving path shows up here rather than as
	// unexplained latency.
	StallNanos int64 `json:"stall_ns"`
	// StalledWrites counts mutations that hit the stall path at all.
	StalledWrites int64 `json:"stalled_writes"`
	// CompactionQueueDepth is the number of compaction requests for
	// this store currently sitting in a scheduler queue (a gauge, not
	// cumulative; typically 0 or 1 because schedulers coalesce).
	CompactionQueueDepth int64 `json:"compaction_queue_depth"`
	// WriteAmplification is (FlushedBytes + CompactionBytesWritten) /
	// UserBytes — how many bytes the engine wrote per logical byte the
	// user wrote. Zero until the first flush.
	WriteAmplification float64 `json:"write_amplification"`
}

// CacheHitRatio returns hits/(hits+misses), or 0 with no lookups.
func (s Stats) CacheHitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Add returns the element-wise sum of two stats snapshots; embedders use
// it to aggregate per-store stats to a server-wide view. The derived
// WriteAmplification is recomputed from the summed byte counters.
func (s Stats) Add(o Stats) Stats {
	out := Stats{
		Gets:                   s.Gets + o.Gets,
		Puts:                   s.Puts + o.Puts,
		Deletes:                s.Deletes + o.Deletes,
		Scans:                  s.Scans + o.Scans,
		ScannedEntries:         s.ScannedEntries + o.ScannedEntries,
		CacheHits:              s.CacheHits + o.CacheHits,
		CacheMisses:            s.CacheMisses + o.CacheMisses,
		Flushes:                s.Flushes + o.Flushes,
		FlushedBytes:           s.FlushedBytes + o.FlushedBytes,
		Compactions:            s.Compactions + o.Compactions,
		CompactedBytes:         s.CompactedBytes + o.CompactedBytes,
		BlocksRead:             s.BlocksRead + o.BlocksRead,
		FilterNegatives:        s.FilterNegatives + o.FilterNegatives,
		MemstoreCurrent:        s.MemstoreCurrent + o.MemstoreCurrent,
		UserBytes:              s.UserBytes + o.UserBytes,
		CompactionBytesWritten: s.CompactionBytesWritten + o.CompactionBytesWritten,
		StallNanos:             s.StallNanos + o.StallNanos,
		StalledWrites:          s.StalledWrites + o.StalledWrites,
		CompactionQueueDepth:   s.CompactionQueueDepth + o.CompactionQueueDepth,
	}
	if out.UserBytes > 0 {
		out.WriteAmplification = float64(out.FlushedBytes+out.CompactionBytesWritten) / float64(out.UserBytes)
	}
	return out
}
