package kv

import (
	"sync"
	"sync/atomic"
	"time"

	"met/internal/obs"
)

// Host is where a store runs: the scheduler that serves its
// compactions, the I/O budget its background bytes charge, the file
// count at which its writers stall, the counters its work lands in and
// the hook told when its file stack changes. A store has one host at a
// time — Config.Host, then SetHost when it moves. A region server
// builds one per hosted region, all sharing the server's Counters, so
// work is counted where it happened and a moved store's history stays
// with the server that did it.
type Host struct {
	// Compactor, when set, is fired when a flush pushes the file count
	// over MaxStoreFiles, and runs CompactFiles on a goroutine of its
	// own. Nil, the store serves itself: the goroutine whose write or
	// Flush crossed the threshold merges the whole stack before its call
	// returns. Either way the merge runs outside the engine locks.
	Compactor CompactionTrigger
	// Budget, when set, rate-limits CompactFiles I/O and receives
	// foreground accounting from flushes, so compaction and serving
	// share one disk-bandwidth budget.
	Budget IOBudget
	// HardMaxStoreFiles is the file count at which writers stall until
	// background compaction catches up (HBase's blockingStoreFiles).
	// Only meaningful with a Compactor — a store that compacts on its
	// own writers' goroutines has nothing asynchronous to wait for;
	// 0 defaults to 3×MaxStoreFiles, negative disables stalling.
	HardMaxStoreFiles int
	// Counters receives every cumulative engine counter the store's
	// work moves. Nil gives the store a private set.
	Counters *Counters
	// OnFilesChanged, when set, is invoked outside all engine locks
	// after the immutable file stack changes — a flush added a file, or
	// a compaction spliced one in. Embedders that mirror the stack into
	// an external system (HDFS bookkeeping, SSTable replication) use it
	// as their wake-up; consecutive changes may coalesce into one call,
	// so implementations must reconcile against the current stack rather
	// than assume one event per file.
	OnFilesChanged func()
}

// host normalizes h against the store's config: a private Counters
// when none is given, and a stall ceiling above the compaction
// threshold — a stall is only safe with a compaction request pending
// to release it, so incoherent combinations must not wedge writers.
// It reads only MaxStoreFiles, fixed at open, so SetHost needs no lock.
func (c *Config) host(h Host) *Host {
	if h.Counters == nil {
		h.Counters = new(Counters)
	}
	switch {
	case c.MaxStoreFiles < 0:
		h.HardMaxStoreFiles = -1
	case h.HardMaxStoreFiles == 0:
		h.HardMaxStoreFiles = 3 * c.MaxStoreFiles
	case h.HardMaxStoreFiles > 0 && h.HardMaxStoreFiles <= c.MaxStoreFiles:
		h.HardMaxStoreFiles = c.MaxStoreFiles + 1
	}
	return &h
}

// SetHost moves the store to host h — the engine half of a region
// move. The swap is atomic: a concurrent writer sees the old host or
// the new, never a mix. A stall under way is split at the call, the old
// host counting it up to here and the new one from here, and its writer
// wakes to judge h's ceiling.
func (s *Store) SetHost(h Host) {
	nh := s.cfg.host(h)
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	old := s.host.Swap(nh)
	for _, from := range s.stalls {
		old.Counters.endStall(*from)
		*from = nh.Counters.beginStall()
	}
	if s.stallGate != nil {
		close(s.stallGate)
		s.stallGate = nil
	}
}

// Counters is the cumulative half of Stats plus the flush-duration
// histogram: atomics, so the read path bumps them under the store's
// read lock. Stores sharing one Counters (a server's) sum into it; no
// counter ever falls.
type Counters struct {
	gets, puts, deletes    atomic.Int64
	scans, scannedEntries  atomic.Int64
	cacheHits, cacheMisses atomic.Int64
	flushes, flushedBytes  atomic.Int64
	compactions            atomic.Int64
	compactedBytes         atomic.Int64
	blocksRead             atomic.Int64
	filterNegatives        atomic.Int64
	userBytes              atomic.Int64
	compactionBytesWritten atomic.Int64
	stalledWrites          atomic.Int64

	// Flush times every memstore flush.
	Flush obs.Histogram

	// Stall time under stallMu, so a snapshot sees ended stalls and
	// those under way at one instant: the ended stalls' time, how many
	// are under way, and the sum of their starts (monoNow's clock).
	stallMu   sync.Mutex
	stallDone int64
	stalling  int64
	stallFrom int64
}

// clockBase anchors monoNow: time.Since reads the monotonic clock.
var clockBase = time.Now()

func monoNow() int64 { return int64(time.Since(clockBase)) }

// beginStall counts a stall under way from now, which it returns.
func (c *Counters) beginStall() int64 {
	c.stallMu.Lock()
	defer c.stallMu.Unlock()
	now := monoNow()
	c.stalling++
	c.stallFrom += now
	return now
}

// endStall ends the stall beginStall returned from.
func (c *Counters) endStall(from int64) {
	c.stallMu.Lock()
	defer c.stallMu.Unlock()
	c.stalling--
	c.stallFrom -= from
	c.stallDone += monoNow() - from
}

// Snapshot returns the counters as a Stats whose gauges are zero.
// StallNanos includes the part so far of every stall under way.
func (c *Counters) Snapshot() Stats {
	c.stallMu.Lock()
	stall := c.stallDone + c.stalling*monoNow() - c.stallFrom
	c.stallMu.Unlock()
	s := Stats{
		Gets:                   c.gets.Load(),
		Puts:                   c.puts.Load(),
		Deletes:                c.deletes.Load(),
		Scans:                  c.scans.Load(),
		ScannedEntries:         c.scannedEntries.Load(),
		CacheHits:              c.cacheHits.Load(),
		CacheMisses:            c.cacheMisses.Load(),
		Flushes:                c.flushes.Load(),
		FlushedBytes:           c.flushedBytes.Load(),
		Compactions:            c.compactions.Load(),
		CompactedBytes:         c.compactedBytes.Load(),
		BlocksRead:             c.blocksRead.Load(),
		FilterNegatives:        c.filterNegatives.Load(),
		UserBytes:              c.userBytes.Load(),
		CompactionBytesWritten: c.compactionBytesWritten.Load(),
		StallNanos:             stall,
		StalledWrites:          c.stalledWrites.Load(),
	}
	if s.UserBytes > 0 {
		s.WriteAmplification = float64(s.FlushedBytes+s.CompactionBytesWritten) / float64(s.UserBytes)
	}
	return s
}
