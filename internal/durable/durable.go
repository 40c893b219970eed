// Package durable is the on-disk storage engine behind met/internal/kv:
// a segmented, group-committed write-ahead log plus SSTable block files,
// packaged as a kv.StorageBackend so a Region's store can be flipped
// between the in-memory simulation backend and real disk I/O with one
// configuration knob. Every acknowledged write survives a hard process
// kill: Put is acknowledged only after its WAL record is fsynced, flushes
// write SSTables with write-to-temp/fsync/rename, and recovery replays
// the log into the memstore on open, dropping torn tails at the first
// bad checksum.
//
// # WAL format
//
// One WAL serves a whole RegionServer: every hosted region appends
// through a region-scoped handle (WAL.Region), so N regions share a
// single fsync stream — HBase's one-log-per-server design. The log is a
// sequence of segment files, wal-<seq>.log, appended in order and only
// ever deleted whole (Truncate never rewrites a segment in place):
//
//	segment := magic "METW" (4) | version (1) | frame*
//	frame   := length (4, LE)   | crc32c (4, LE, over payload) | payload
//	payload := flags (1) | timestamp (uvarint) |
//	           regionLen (uvarint) | region |          (version 2)
//	           keyLen (uvarint) | key | valLen (uvarint) | value
//
// flags bit 0 marks a tombstone; bit 1 marks a region-drop record that
// voids every earlier record of the same region (written when a
// region's store is discarded, so a re-minted region name cannot
// resurrect a predecessor's records). Version 1 segments — the old
// one-log-per-store format — carry no region field and read back with
// region "". crc32c is the Castagnoli polynomial. A reader accepts a
// frame only if the full header and payload are present and the
// checksum matches; anything else is a torn tail (a crash mid-write)
// and ends recovery at the last good record.
//
// Each segment tracks the newest timestamp per region it holds; a
// segment is reclaimed only once *every* region's flushed high-water
// mark passes its maximum there (or the region was dropped), and
// deletable segments are taken strictly oldest-first so a drop marker
// always outlives the records it voids. Per-region replay filters the
// shared stream back to one store's records, applying drop markers in
// order.
//
// Appends reach the operating system immediately but are acknowledged
// lazily: AppendBuffered returns a commit function that blocks until an
// fsync covers the record. The first committer becomes the sync leader
// and fsyncs once for every record buffered so far — across all regions
// (group commit), so N concurrent writers pay ~1 fsync, not N. With
// KeepTail enabled the log also retains its durable-but-unflushed
// records in memory (TailFrom), the records tail-streaming appends to
// follower replicas (see tail.go).
//
// # SSTable format
//
// One immutable sorted file per memstore flush or compaction,
// sst-<id>.sst, read back through the kv engine's block cache:
//
//	sstable := magic "METS" (4) | version (1)
//	           dataBlock* | index | bloom | props
//	           footer (48 bytes)
//	dataBlock := kv block payload | crc32c (4, LE)
//	index   := blockCount (uvarint), then per block:
//	           firstKeyLen (uvarint) | firstKey |
//	           offset (uvarint) | length (uvarint)
//	bloom   := k (1) | bit array
//	props   := entryCount | maxTimestamp |
//	           minKeyLen | minKey | maxKeyLen | maxKey   (uvarints)
//	footer  := indexOff | indexLen | bloomOff | bloomLen |
//	           propsOff | propsLen  (6 × u32, LE)
//	           | reserved (16) | magic "METSFOOT" (8)
//
// A data block's payload is a kv.Block's encoded form, written as
// kv.PackBlocks packed it, so it is bit-identical to the in-memory
// backend's blocks; a read verifies the CRC and indexes the payload in
// place (kv.Block.Parse), copying no entry. The read buffer comes from
// a free list of blocks whose last pin was dropped (an eviction from
// the block cache, or the end of the Get or scan that held an evicted
// block), so a block-cache miss reuses an evicted block's buffer and
// offsets instead of allocating 64 KiB; only a compaction's blocks stay
// pinned and are left to the GC (see kv.Block). The index and the bloom filter are loaded into memory at
// open; a Get that the bloom filter rejects performs zero data-block
// reads.
//
// # Static analysis & invariants
//
// The durability contract is machine-checked: cmd/metlint (an in-repo
// go/analysis-style suite, run by CI as `go vet -vettool`) fails the
// build on violations. The invariants it enforces here:
//
//   - syncerr: every error from an fsync-bearing call — WAL.Close,
//     RegionLog.Append/AppendBuffered, (*os.File).Sync, syncFile,
//     syncDir — is handled or explicitly allowlisted with a reason. A
//     dropped sync error is an acknowledged write that may not exist
//     after a crash, the one lie this package must never tell.
//   - locksafe: no fsync, file I/O or channel operation while WAL.mu
//     is held. Group commit depends on this: appends serialize briefly
//     under the lock, but the fsync every committer waits on runs
//     outside it, so N writers share one sync instead of queueing N.
//   - crashpoint: in the hbase layer driving this package, every
//     crash-injection label (Master.crash, e.g. "snapshot.committed")
//     is unique and exercised by at least one test — a dangling crash
//     point is recovery code that nothing proves.
//
// Both on-disk parsers above (WAL frames, SSTable footer/index/blocks)
// are additionally fuzzed in CI with corpora seeded from real encoder
// output; they must reject any corruption with an error, never a panic
// or an attacker-sized allocation.
//
// The analyzers are intraprocedural (one function body at a time);
// helpers that lock on behalf of a caller are out of scope by design,
// so the package keeps each critical section lexically inside the
// function that takes the lock. Exceptions carry an inline
// `//lint:allow <analyzer> <reason>` with a mandatory reason.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Common errors.
var (
	// ErrClosed is returned when appending to a closed WAL or backend.
	ErrClosed = errors.New("durable: closed")
	// ErrCorrupt is returned when a file fails its integrity checks in a
	// position that cannot be a torn tail.
	ErrCorrupt = errors.New("durable: corrupt data")
)

// Options tune the durable engine. The zero value is ready for use.
type Options struct {
	// SegmentBytes is the WAL segment rotation threshold. A smaller
	// value makes Truncate (whole-segment deletion) reclaim space
	// sooner at the cost of more files. Defaults to 4 MiB.
	SegmentBytes int64
	// BitsPerKey is the bloom filter density for SSTables. 10 bits/key
	// gives ~1% false positives. Defaults to 10; negative disables the
	// filter.
	BitsPerKey int
	// NoSync skips every fsync. Only for tests and benchmarks that
	// measure non-durability costs; a crash can lose acknowledged
	// writes.
	NoSync bool //lint:allow deadfield tests and fuzzers that measure no durability skip fsync with it
	// Account, when non-nil, receives the byte count of every
	// foreground serving-path write the backend performs (WAL frames —
	// bytes a client is actively waiting on). It feeds the I/O budget
	// shared with background compaction, so compaction yields to
	// serving; it must never block. Flush/compaction SSTable builds are
	// accounted by the engine, which knows which of the two classes a
	// build belongs to. Swappable on a live log via WAL.SetAccount —
	// a moved region's WAL bytes must charge its new host's budget.
	Account func(bytes int)
	// ExternalWAL opens the Backend without a private log: the store's
	// records live in a shared server-wide WAL instead (the engine is
	// handed a region-scoped handle via kv.Config.WAL). Backend.WAL and
	// Backend.Log return nil.
	ExternalWAL bool
	// KeepTail retains durable-but-unflushed records in memory so
	// WAL.TailFrom can hand the replicator the records a follower lacks.
	// Memory cost is bounded by the unflushed working set (the same
	// records sit in the memstores).
	KeepTail bool
	// OnSynced, when non-nil, is called after each successful
	// commit-path fsync with the set of regions whose records gained
	// coverage since the previous good round — the replicator's cue that
	// fresh tail is shippable; the callee owns the map. Called without
	// internal locks held; it must not block (it runs on a committing
	// writer's goroutine). Rotation-covered records are reported with
	// the next fsync, so a quiesce must ship every region explicitly
	// rather than wait for a callback.
	OnSynced func(regions map[string]bool)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.BitsPerKey == 0 {
		o.BitsPerKey = 10
	}
	return o
}

// castagnoli is the CRC32C table shared by the WAL and SSTable formats.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// syncFile fsyncs f unless disabled.
func syncFile(f *os.File, noSync bool) error {
	if noSync {
		return nil
	}
	return f.Sync()
}

// SyncDir fsyncs a directory so renames and deletes within it are
// durable.
func SyncDir(dir string) error { return syncDir(dir, false) }

// syncDir is SyncDir unless disabled.
func syncDir(dir string, noSync bool) error {
	if noSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
