package kv

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file is the engine half of the background-compaction subsystem
// (met/internal/compaction owns the scheduler half): the contract a
// scheduler programs against (CompactionTrigger, IOBudget, FileStat,
// CompactionSelection), the off-lock CompactFiles merge, and the
// write-stall backpressure that engages when compaction falls behind.
//
// The store write lock is never held across compaction I/O. CompactFiles
// snapshots the selected files under a read lock, merges and persists
// them with no lock held (rate-limited by the IOBudget), and swaps the
// file stack under a brief write lock. Puts therefore proceed throughout
// a compaction; the only coupling left is the hard file-count ceiling,
// which stalls writers *outside* the engine locks and accounts every
// stalled nanosecond in Stats.StallNanos.

// Common background-compaction errors.
var (
	// ErrCompactionConflict is returned by CompactFiles when the
	// selected files are no longer a contiguous run of the store's file
	// stack (another compaction retired one of them first). The caller
	// should re-plan against a fresh FileStats snapshot.
	ErrCompactionConflict = errors.New("kv: compaction selection no longer matches the file stack")
)

// FileStat describes one immutable store file for compaction planning,
// in the same newest-first order as the file stack.
type FileStat struct {
	ID      uint64
	Bytes   int64
	Entries int
	MinKey  string
	MaxKey  string
}

// Overlaps reports whether the key ranges of two files intersect —
// leveled policies prefer merging overlapping files because that is
// where duplicate versions (and therefore reclaimable bytes) live.
func (f FileStat) Overlaps(o FileStat) bool {
	if f.Entries == 0 || o.Entries == 0 {
		return false
	}
	return f.MinKey <= o.MaxKey && o.MinKey <= f.MaxKey
}

// FileStats snapshots the immutable file stack for a compaction planner,
// newest first.
func (s *Store) FileStats() []FileStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FileStat, len(s.files))
	for i, f := range s.files {
		minKey, maxKey := f.KeyRange()
		out[i] = FileStat{
			ID:      f.ID(),
			Bytes:   int64(f.Bytes()),
			Entries: f.Entries(),
			MinKey:  minKey,
			MaxKey:  maxKey,
		}
	}
	return out
}

// CompactionPressure summarizes a store's compaction backlog at the
// moment a flush crossed the soft file-count threshold; the scheduler
// uses it to score the store without calling back into engine locks.
type CompactionPressure struct {
	NumFiles   int
	TotalBytes int64
}

// CompactionTrigger is how a store asks a background scheduler for
// service (Host.Compactor). The engine fires it outside all engine
// locks, after the flush that crossed Config.MaxStoreFiles;
// implementations must enqueue and return quickly, and must not call
// back into the store synchronously.
type CompactionTrigger interface {
	CompactionNeeded(s *Store, p CompactionPressure)
}

// IOBudget arbitrates disk bandwidth between background compaction and
// the foreground serving path. Background I/O (compaction reads and
// writes) blocks in WaitBackground until budget is available; foreground
// I/O (WAL appends, flush SSTables) is accounted with NoteForeground but
// never blocked, so compaction yields to serving — never the reverse.
type IOBudget interface {
	WaitBackground(bytes int)
	NoteForeground(bytes int)
}

// CompactionSelection names the store files a compaction should merge.
// The IDs must form a contiguous run of the file stack (any order within
// the slice); contiguity is what keeps the stack's newest-first
// timestamp ordering intact after the merged file is spliced in. An
// empty ID list selects every current file.
type CompactionSelection struct {
	IDs []uint64
	// Major drops tombstones and shadowed versions. Tombstones are only
	// actually dropped when the selection reaches the oldest file in
	// the stack — otherwise they must survive to keep shadowing older
	// files, exactly like HBase minor vs major compactions.
	Major bool
}

// CompactionResult reports what a CompactFiles call did.
type CompactionResult struct {
	BytesIn  int64
	BytesOut int64
}

// CompactFiles merges a selected contiguous run of store files into one
// file, doing all I/O outside the store locks:
//
//	phase 1 (read lock, brief): resolve the selection against the
//	        current stack and pin the selected *StoreFile values;
//	phase 2 (no lock): merge-iterate the files, build the replacement
//	        through the backend — rate-limited by the host's Budget —
//	        while Gets, Puts and Scans proceed;
//	phase 3 (write lock, brief): splice the merged file into the stack
//	        in place of the run, retire the inputs, wake stalled
//	        writers.
//
// Concurrent CompactFiles calls on the same store serialize, and Close
// waits for the one in flight, which then writes no output or discards
// it; a selection that no longer matches the stack fails with
// ErrCompactionConflict so the scheduler can re-plan. A crash after phase 2 but before the
// retired inputs are unlinked leaves both the merged file and its inputs
// on disk; recovery tolerates the duplication (identical entries dedup
// at read time) and the next compaction reclaims the space.
func (s *Store) CompactFiles(sel CompactionSelection) (CompactionResult, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var res CompactionResult

	// Phase 1: pin the selected run under the read lock.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return res, ErrClosed
	}
	ids := sel.IDs
	if len(ids) == 0 {
		ids = make([]uint64, len(s.files))
		for i, f := range s.files {
			ids[i] = f.ID()
		}
	}
	run, runStart, err := s.locateRunLocked(ids)
	if err != nil {
		s.mu.RUnlock()
		return res, err
	}
	// Tombstones may be dropped only when nothing older than the run
	// survives it. Holding compactMu means no other compaction can
	// retire files before phase 3, and flushes only prepend, so "run
	// reaches the bottom of the stack" is stable across the phases.
	dropTombstones := sel.Major && runStart+len(run) == len(s.files)
	s.mu.RUnlock()
	if len(run) == 0 {
		return res, nil
	}
	if len(run) == 1 && !sel.Major {
		return res, nil // nothing to merge
	}

	// Phase 2: merge with no engine lock held. Reads bypass the block
	// cache (compaction must not evict the serving working set) and are
	// charged to the background I/O budget up front, file by file.
	budget := s.host.Load().Budget
	sources := make([]Iterator, 0, len(run))
	var maxTSFloor uint64
	for _, f := range run {
		if budget != nil {
			budget.WaitBackground(f.Bytes())
		}
		// The merged entries alias the blocks until createFileWithFloor
		// has written them, so the iterators keep their pins.
		sources = append(sources, f.iteratorFrom("", nil, nil, nil))
		res.BytesIn += int64(f.Bytes())
		if f.MaxTimestamp() > maxTSFloor {
			maxTSFloor = f.MaxTimestamp()
		}
	}
	it := newDedupIterator(newMergeIterator(sources), dropTombstones)
	var entries []Entry
	var outBytes int
	for it.Next() {
		e := it.Entry()
		entries = append(entries, e)
		outBytes += e.Size()
	}
	for _, src := range sources {
		if err := iterErr(src); err != nil {
			return res, fmt.Errorf("kv: compact read: %w", err)
		}
	}
	if budget != nil {
		budget.WaitBackground(outBytes)
	}
	// Close waits for this merge; one that began meanwhile gets no
	// output written.
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return res, ErrClosed
	}
	merged, err := s.createFileWithFloor(nextFileID(), entries, maxTSFloor)
	if err != nil {
		return res, fmt.Errorf("kv: compact write: %w", err)
	}
	res.BytesOut = int64(merged.Bytes())

	// Phase 3: splice under the write lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.discardFile(merged)
		return res, ErrClosed
	}
	run2, runStart2, err := s.locateRunLocked(ids)
	if err != nil || len(run2) != len(run) {
		s.mu.Unlock()
		s.discardFile(merged)
		return res, ErrCompactionConflict
	}
	files := make([]*StoreFile, 0, len(s.files)-len(run2)+1)
	files = append(files, s.files[:runStart2]...)
	files = append(files, merged)
	files = append(files, s.files[runStart2+len(run2):]...)
	s.files = files
	s.filesDirty.Store(true)
	for _, f := range run2 {
		s.cache.invalidateFile(f.cacheID)
		if s.backend != nil {
			s.retiredMu.Lock()
			s.retired = append(s.retired, f.ID())
			s.retiredMu.Unlock()
		}
	}
	c := s.host.Load().Counters
	c.compactions.Add(1)
	c.compactedBytes.Add(res.BytesIn)
	c.compactionBytesWritten.Add(res.BytesOut)
	s.mu.Unlock()

	// Announce the new stack before the unlink-and-fsync of the retired
	// inputs: stalled writers and the files-changed subscriber need only
	// the splice.
	s.releaseStall()
	s.notifyFilesChanged()
	s.drainRetired(false)
	return res, nil
}

// locateRunLocked resolves a set of file IDs to their *StoreFile run in
// the current stack, verifying the IDs are present and contiguous.
// Callers hold mu (either side).
func (s *Store) locateRunLocked(ids []uint64) ([]*StoreFile, int, error) {
	if len(ids) == 0 {
		return nil, 0, nil
	}
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	start := -1
	for i, f := range s.files {
		if want[f.ID()] {
			start = i
			break
		}
	}
	if start < 0 || start+len(want) > len(s.files) {
		return nil, 0, ErrCompactionConflict
	}
	run := s.files[start : start+len(want)]
	for _, f := range run {
		if !want[f.ID()] {
			return nil, 0, ErrCompactionConflict
		}
	}
	return run, start, nil
}

// discardFile removes a file that was built but never published to the
// stack (a lost compaction race); no reader can reference it.
func (s *Store) discardFile(f *StoreFile) {
	if s.backend != nil {
		_ = s.backend.Remove(f.ID())
	}
}

// NoteCompactionQueued records that a background compaction request for
// this store entered (+1) or left (-1) a scheduler queue; the gauge is
// surfaced as Stats.CompactionQueueDepth.
func (s *Store) NoteCompactionQueued(delta int64) {
	s.compactionQueued.Add(delta)
}

// maybeTriggerCompaction serves the request a flush latched when it
// raised the file count over the soft threshold: it fires the configured
// CompactionTrigger, or — for a store without a scheduler — merges the
// whole stack right here, on the goroutine whose flush asked, and
// returns that compaction's error. Called outside all engine locks
// (afterFlush, OpenStore, maybeStall).
func (s *Store) maybeTriggerCompaction() error {
	if !s.compactionWanted.CompareAndSwap(true, false) {
		return nil
	}
	s.mu.RLock()
	closed := s.closed
	p := CompactionPressure{NumFiles: len(s.files)}
	for _, f := range s.files {
		p.TotalBytes += int64(f.Bytes())
	}
	s.mu.RUnlock()
	if closed || s.cfg.MaxStoreFiles <= 0 || p.NumFiles <= s.cfg.MaxStoreFiles {
		return nil
	}
	if trigger := s.host.Load().Compactor; trigger != nil {
		trigger.CompactionNeeded(s, p)
		return nil
	}
	return s.Compact(false)
}

// stallGateChan returns the channel the next stall release will close.
// The acquire-then-recheck ordering in maybeStall makes missed wakeups
// impossible: the gate is fetched before the condition is re-read, so a
// release racing the check closes the very channel the waiter selects
// on.
func (s *Store) stallGateChan() chan struct{} {
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	if s.stallGate == nil {
		s.stallGate = make(chan struct{})
	}
	return s.stallGate
}

// releaseStall wakes every writer parked on the hard file ceiling; the
// paths that shrink the file stack (compactions) and the ones that end
// the store's life (Close, Seal) call it.
func (s *Store) releaseStall() {
	s.stallMu.Lock()
	if s.stallGate != nil {
		close(s.stallGate)
		s.stallGate = nil
	}
	s.stallMu.Unlock()
}

// maybeStall blocks a writer while the store's file count sits at or
// above its host's hard ceiling, giving background compaction room to
// catch up — HBase's blockingStoreFiles behavior. It runs before the
// write lock is taken, so an in-flight compaction's swap (phase 3) can
// always proceed and wake us. The wait is bounded by
// Config.StallTimeout: a wedged compactor degrades the store to
// unbounded file counts rather than wedging writers forever. Every
// stalled nanosecond is accounted, the stall under way included (see
// Counters.Snapshot).
func (s *Store) maybeStall() {
	h := s.host.Load()
	if h.Compactor == nil || h.HardMaxStoreFiles <= 0 {
		return
	}
	// Never park on a gate while a compaction request is still latched
	// but unsent — the release we would wait for might otherwise never
	// be scheduled. (Firing a trigger cannot fail; only a store moved
	// since the check above to a host without one compacts here, and
	// the next flush re-latches whatever this attempt left undone.)
	_ = s.maybeTriggerCompaction()
	var from *int64 // the stall's start on its current host, once stalled
	var timer *time.Timer
stall:
	for {
		gate := s.stallGateChan()
		// Re-read the host every pass: SetHost releases the gate, and
		// the waiter must judge the ceiling — or its absence — against
		// the store's new home, not the old one.
		h = s.host.Load()
		s.mu.RLock()
		over := !s.closed && !s.sealed && h.Compactor != nil && h.HardMaxStoreFiles > 0 && len(s.files) >= h.HardMaxStoreFiles
		s.mu.RUnlock()
		if !over {
			break
		}
		if from == nil {
			from = s.beginStall()
			timer = time.NewTimer(s.cfg.StallTimeout)
		}
		select {
		case <-gate:
		case <-timer.C:
			break stall
		}
	}
	if from != nil {
		timer.Stop()
		s.endStall(from)
	}
}

// beginStall counts a writer's stall on the host from now on, where
// SetHost can split it.
func (s *Store) beginStall() *int64 {
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	c := s.host.Load().Counters
	c.stalledWrites.Add(1)
	from := c.beginStall()
	s.stalls = append(s.stalls, &from)
	return &from
}

// endStall ends a beginStall stall on the host that counts it now.
func (s *Store) endStall(from *int64) {
	s.stallMu.Lock()
	defer s.stallMu.Unlock()
	s.stalls = slices.DeleteFunc(s.stalls, func(p *int64) bool { return p == from })
	s.host.Load().Counters.endStall(*from)
}
