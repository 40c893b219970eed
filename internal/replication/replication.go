// Package replication maintains real on-disk copies of every region's
// immutable SSTables on follower servers, so a hard-killed server's
// regions can be reopened elsewhere from the copies alone — the
// HBase-on-HDFS property (region data survives a datanode loss) that
// the simulated hdfs layer only pretended to have.
//
// # Replica layout
//
// Each region server owns one Replicator (like its compactor pool).
// The replicator tracks the server's hosted regions; whenever a
// region's store changes its file stack — a flush added an SSTable, a
// compaction replaced a run (kv.Host.OnFilesChanged) — the region is
// enqueued and a background worker *reconciles* each follower's replica directory
// against the primary's current stack:
//
//	<DataDir>/regions/<region>             primary store (WAL + SSTables)
//	<DataDir>/replica/<follower>/<region>  that follower's copy (same
//	                                       SSTable names, plus the
//	                                       wal-tail-<g>.log generations)
//
// Missing SSTables are copied in (write-to-temp/fsync/rename, so a
// crash never leaves a half-copied file visible); SSTables the primary
// has compacted away are retired. Copies are charged to the shared
// compaction I/O budget as background bytes, so shipping yields to
// foreground serving exactly like compaction does. Followers are chosen
// by the hdfs.Namenode's replica placement (local-first, least-used)
// and recorded per region in the META catalog's table rows, which is
// how a cold start — and Master.RecoverServer — rediscovers placement.
//
// # Tail streaming
//
// SSTables alone leave a loss window on a server kill: the primary's
// unflushed memstore. Each follower therefore also holds the region's
// synced WAL tail — its durable-but-unflushed records, read from the
// server's shared log (durable.WAL.TailFrom) — as append-only
// generation files in its replica directory (durable/tail.go).
//
// Append: every successful WAL fsync round names its regions
// (TailSynced) and wakes the replicator's one tail shipper, which
// appends to each follower's current generation only the records that
// follower does not have yet, with one fsync per follower file. Rounds
// arriving while it ships coalesce into its next append. Tail ships
// bypass the worker queue and the I/O budget: the tail is bounded by
// the unflushed working set, and the loss bound depends on it shipping
// while a write burst has drained the budget — exactly when it matters.
// A flush racing the shipper leaves the records the shipper has not
// read yet in the log's tail until the region's next flush. A failed
// append may have torn the generation, so the same pass starts a fresh
// one with a snapshot of the whole synced tail instead.
//
// Cut: only the reconcile worker drops records from a follower, and
// only when the region's file set changed. Under the target's lock it
// snapshots the synced tail into a new generation g+1 and points the
// shipper's appends at it; it then snapshots the file stack and copies
// the SSTables; only once a follower holds every file of that stack
// does it delete that follower's generations <= g. The tail is
// snapshotted before the stack, so every record missing from g+1 was
// flushed into a file of the stack first: a follower drops records only
// once it holds the SSTable that contains them. Generation numbers
// continue from the directory, so a move or restart never reuses one.
//
// # Recovery ordering
//
// The replica directory is crash-consistent by construction: every
// visible SSTable is a complete, fsynced copy of an immutable file, and
// a directory holding both a compaction's inputs and its output is the
// exact state the engine itself tolerates after a crash mid-compaction
// (duplicate entries dedup at read time). Tail generations are
// CRC-framed and only appended to, so a crash mid-append tears at most
// the last frame of one generation; reading every generation in order
// (durable.ReadTail) yields the intact prefix of each, and generations
// overlap each other and the SSTables, so replay dedups by timestamp.
// Reopening a store over a seeded directory therefore needs no
// replication-specific recovery code — Master.RecoverServer copies the
// replica's SSTables into a fresh region directory, opens it like any
// other cold store, replays the tail generations through the engine,
// then commits the new layout through the catalog (see
// hbase.RecoverServer for the commit ordering).
package replication

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/durable"
	"met/internal/kv"
	"met/internal/obs"
)

// copySSTable copies one SSTable into a replica directory; tests swap
// it to stall or fail copies.
var copySSTable = CopyFile

// target is one tracked region: how to snapshot its primary file stack
// and read its synced WAL tail, where its replicas live, and each
// follower's tail state. The closures let the replicator always see the
// region's *current* store and follower set — a server restart swaps
// the store, a follower re-pick changes the destinations, and none
// needs to re-register.
type target struct {
	// mu serializes the shipper's appends and the worker's cuts for the
	// region, and guards every field below.
	mu    sync.Mutex
	files func() ([]kv.ExportedFile, bool)
	dests func() []string
	tail  func(from, to uint64) ([]kv.Entry, uint64)
	pos   uint64                   // the first log position not yet shipped
	tails map[string]*followerTail // by replica directory
}

// followerTail is one follower's copy of a region's WAL tail.
type followerTail struct {
	gen  uint64 // the generation appends go to
	path string // gen's file, set with gen
	live bool   // gen holds a snapshot and every append since succeeded
	// cut is the file stack the last cut saw; retire is the newest
	// generation that goes once the follower holds a stack taken after
	// that cut.
	cut    []uint64
	retire uint64
}

// Replicator ships immutable SSTables and WAL tails to follower replica
// directories, one per region server. Work coalesces: a region notified
// ten times before the worker gets to it is reconciled once, against
// the newest stack, and sync rounds arriving while the shipper appends
// merge into its next pass.
type Replicator struct {
	mu       sync.Mutex
	budget   kv.IOBudget // see SetBudget
	idle     *sync.Cond  // a worker or shipper pass ended (Quiesce)
	fileWake *sync.Cond  // stale gained a region
	tailWake *sync.Cond  // dirty gained a region
	targets  map[string]*target
	stale    map[string]bool // regions to reconcile
	dirty    map[string]bool // regions with synced records to ship
	active   int             // in-flight reconciliation passes (0 or 1)
	shipping int             // in-flight tail passes (0 or 1)
	closed   bool
	wg       sync.WaitGroup

	filesShipped atomic.Int64
	bytesShipped atomic.Int64
	filesRetired atomic.Int64
	tailFailures atomic.Int64
	fileFailures atomic.Int64
	lastFailure  string // "<region>: <err>" of the newest failed ship; guarded by mu
	syncs        atomic.Int64
	tailShips    atomic.Int64
	tailBytes    atomic.Int64
	tailFrames   atomic.Int64

	// shipHist times replica-directory reconciles that copied at least
	// one SSTable; tailHist times tail appends and generation starts.
	shipHist obs.Histogram
	tailHist obs.Histogram
}

// New starts a replicator: one reconcile worker and one tail shipper.
// budget, when non-nil, receives every copied SSTable byte as
// background I/O (compaction.Budget implements this), so shipping
// yields to foreground serving exactly like compaction does; tail ships
// are exempt (see the package doc).
func New(budget kv.IOBudget) *Replicator {
	r := &Replicator{
		budget:  budget,
		targets: make(map[string]*target),
		stale:   make(map[string]bool),
		dirty:   make(map[string]bool),
	}
	r.idle = sync.NewCond(&r.mu)
	r.fileWake = sync.NewCond(&r.mu)
	r.tailWake = sync.NewCond(&r.mu)
	r.wg.Add(2)
	go r.loop(r.fileWake, r.stale, &r.active, r.reconcile)
	go r.loop(r.tailWake, r.dirty, &r.shipping, r.shipTail)
	return r
}

// SetBudget charges SSTable copies to budget from the next copy on:
// a server restarted with new compaction knobs has a new budget, and
// its replicator, whose counters must not restart, stays.
func (r *Replicator) SetBudget(budget kv.IOBudget) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.budget = budget
}

// Track registers a region for replication. files snapshots the
// region's current primary SSTable stack (kv.Store.ExportFiles of
// whatever store currently backs it); dests returns the absolute
// replica directories to keep in sync (one per follower), in a slice
// the replicator only reads, so dests may hand out a cached one; tail, when
// non-nil, reads the region's synced WAL records in a range of log
// positions (durable.WAL.TailFrom) for tail streaming — nil disables it (no
// shared log, or an in-memory store). Tracking is idempotent by region
// name; re-tracking replaces the closures.
func (r *Replicator) Track(region string, files func() ([]kv.ExportedFile, bool), dests func() []string, tail func(from, to uint64) ([]kv.Entry, uint64)) {
	r.mu.Lock()
	t := r.targets[region]
	if t == nil {
		t = &target{files: files, dests: dests, tail: tail, tails: make(map[string]*followerTail)}
		r.targets[region] = t
	}
	r.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.files, t.dests, t.tail = files, dests, tail
}

// Untrack stops replicating a region (it moved away or was retired).
// An in-flight tail append finishes before Untrack returns, and none
// follows — the log may forget the region's flushed records at once;
// an in-flight reconciliation finishes its SSTable copies; pending work
// is dropped.
func (r *Replicator) Untrack(region string) {
	r.mu.Lock()
	t := r.targets[region]
	delete(r.targets, region)
	r.mu.Unlock()
	if t != nil {
		t.mu.Lock()
		if t.tail != nil {
			t.tail(math.MaxUint64, math.MaxUint64)
		}
		t.tail = nil
		t.mu.Unlock()
	}
}

// Notify marks a tracked region for reconciliation — its file set
// changed, or its followers did.
func (r *Replicator) Notify(region string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed && r.targets[region] != nil {
		r.stale[region] = true
		r.fileWake.Signal()
	}
}

// TailSynced marks regions as holding freshly fsynced WAL records and
// wakes the tail shipper (durable.Options.OnSynced). It never blocks on
// I/O: it runs on a committing writer's goroutine.
func (r *Replicator) TailSynced(regions map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for region := range regions {
		if r.targets[region] != nil {
			r.dirty[region] = true
		}
	}
	r.tailWake.Signal()
}

// fail counts one failed ship under its kind and keeps the error's
// text: a counter alone cannot say what went wrong. The next sync round
// retries a tail ship, the next notification an SSTable reconcile.
func (r *Replicator) fail(kind *atomic.Int64, region string, err error) {
	kind.Add(1)
	r.mu.Lock()
	r.lastFailure = region + ": " + err.Error()
	r.mu.Unlock()
}

// Quiesce reconciles and ships every tracked region and blocks until
// that work is done — the "replication caught up" barrier the failover
// gate uses between a clean flush and a hard kill. Everything is
// redone, not just the announced work: an SSTable copy that failed
// earlier is retried, and records a segment rotation's fsync covered
// have no sync round to announce them. Work arriving during the wait
// extends it.
func (r *Replicator) Quiesce() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for region := range r.targets {
		r.stale[region], r.dirty[region] = true, true
	}
	r.fileWake.Signal()
	r.tailWake.Signal()
	for !r.closed && len(r.stale)+len(r.dirty)+r.active+r.shipping > 0 {
		r.idle.Wait()
	}
}

// Close stops the worker and the shipper after their in-flight passes
// finish; pending work is dropped, and no more is done.
func (r *Replicator) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.idle.Broadcast()
	r.fileWake.Broadcast()
	r.tailWake.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// loop is the body of the reconcile worker and of the tail shipper:
// wait until pending names a region, take every pending region at once
// and handle each with r.mu released, counting the pass in busy.
func (r *Replicator) loop(wake *sync.Cond, pending map[string]bool, busy *int, handle func(string, *target)) {
	defer r.wg.Done()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for len(pending) == 0 && !r.closed {
			wake.Wait()
		}
		if r.closed {
			return
		}
		work := make(map[string]*target, len(pending))
		for region := range pending {
			if t := r.targets[region]; t != nil {
				work[region] = t
			}
		}
		clear(pending)
		*busy++
		r.mu.Unlock()
		for region, t := range work {
			handle(region, t)
		}
		r.mu.Lock()
		*busy--
		r.idle.Broadcast()
	}
}

// shipTail appends the region's records synced since its last ship to
// every follower's current generation; a follower without a live
// generation, or whose append just failed, gets a fresh one holding the
// whole synced tail in the same pass, so a failed append needs no later
// wake-up to be repaired.
func (r *Replicator) shipTail(region string, t *target) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tail == nil {
		return
	}
	entries, next := t.tail(t.pos, math.MaxUint64)
	var snap []kv.Entry
	for _, dir := range t.dests() {
		ft := t.follower(dir)
		if ft.live && len(entries) > 0 {
			start := time.Now()
			n, err := durable.AppendTail(ft.path, entries)
			if err != nil {
				ft.live = false // possibly torn: never append after it
				r.fail(&r.tailFailures, region, err)
			} else {
				r.noteTailShip(start, n, len(entries))
			}
		}
		if ft.live {
			continue
		}
		// The fresh generation holds the tail up to next: what the
		// other followers hold after this pass, so nothing ships twice.
		if snap == nil {
			snap, _ = t.tail(0, next)
		}
		if len(snap) > 0 {
			if err := r.startGen(dir, ft, snap); err != nil {
				r.fail(&r.tailFailures, region, err)
			}
		}
	}
	t.pos = next
}

// follower returns dir's tail state, creating it. Caller holds t.mu.
func (t *target) follower(dir string) *followerTail {
	ft := t.tails[dir]
	if ft == nil {
		ft = &followerTail{}
		t.tails[dir] = ft
	}
	return ft
}

// startGen starts a generation in dir above every one present there or
// used before, holding entries — a snapshot of the synced tail — and
// points the follower's appends at it. Caller holds the target's lock.
func (r *Replicator) startGen(dir string, ft *followerTail, entries []kv.Entry) error {
	gens, err := durable.TailGens(dir)
	if err != nil {
		return err
	}
	gen := ft.gen
	if len(gens) > 0 {
		gen = max(gen, gens[len(gens)-1])
	}
	gen++
	start := time.Now()
	n, err := durable.CreateTailGen(dir, gen, entries)
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		r.noteTailShip(start, n, len(entries))
	}
	ft.gen, ft.path, ft.live = gen, durable.TailGenPath(dir, gen), true
	return nil
}

func (r *Replicator) noteTailShip(start time.Time, bytes int64, records int) {
	r.tailHist.Since(start)
	r.tailShips.Add(1)
	r.tailBytes.Add(bytes)
	r.tailFrames.Add(int64(records))
}

// reconcile brings every follower up to the region's current file
// stack. It cuts the tail of each follower whose last cut saw another
// file set, snapshots the stack, copies the missing SSTables and
// retires compacted-away ones, and then deletes the tail generations a
// fully copied stack supersedes. A primary file unlinked between the
// snapshot and the copy (a racing compaction) is skipped: the
// compaction latched a fresh notification, so the region re-reconciles
// against the post-compaction stack.
func (r *Replicator) reconcile(region string, t *target) {
	r.syncs.Add(1)
	t.mu.Lock()
	files, dests := t.files, t.dests
	t.mu.Unlock()
	before, ok := files()
	if !ok {
		return // in-memory backend: nothing shippable
	}
	ids := make([]uint64, len(before))
	for i, f := range before {
		ids[i] = f.ID
	}
	dirs := dests()
	retire := make([]uint64, len(dirs))
	t.mu.Lock()
	var snap []kv.Entry
	for i, dir := range dirs {
		ft := t.follower(dir)
		if t.tail != nil && !slices.Equal(ft.cut, ids) {
			// The shipper's next append repeats what the snapshot holds
			// past t.pos; replay dedups.
			if snap == nil {
				snap, _ = t.tail(0, math.MaxUint64)
			}
			if err := r.startGen(dir, ft, snap); err != nil {
				r.fail(&r.tailFailures, region, err)
			} else {
				ft.cut, ft.retire = ids, ft.gen-1
			}
		}
		retire[i] = ft.retire
	}
	t.mu.Unlock()
	stack, _ := files()
	for i, dir := range dirs {
		shippedBefore, shipStart := r.filesShipped.Load(), time.Now()
		complete, err := r.syncDir(dir, stack)
		if r.filesShipped.Load() > shippedBefore {
			r.shipHist.Since(shipStart)
		}
		if err != nil {
			r.fail(&r.fileFailures, region, err)
		} else if complete && retire[i] > 0 {
			if err := durable.RemoveTailGens(dir, retire[i]); err != nil {
				r.fail(&r.tailFailures, region, err)
			}
		}
	}
}

// ShipLatency returns the distribution of replica reconcile durations
// that copied at least one SSTable.
func (r *Replicator) ShipLatency() obs.Snapshot { return r.shipHist.Snapshot() }

// TailShipLatency returns the distribution of WAL-tail ship durations.
func (r *Replicator) TailShipLatency() obs.Snapshot { return r.tailHist.Snapshot() }

// syncDir makes dir hold exactly the snapshot's SSTables (modulo files
// newer than the snapshot, which a pending notification owns). complete
// reports that dir now holds every file of the snapshot.
func (r *Replicator) syncDir(dir string, files []kv.ExportedFile) (complete bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	have, err := listSSTables(dir)
	if err != nil {
		return false, err
	}
	complete = true
	want := make(map[uint64]bool, len(files))
	var maxWant uint64
	var firstErr error
	for _, f := range files {
		want[f.ID] = true
		if f.ID > maxWant {
			maxWant = f.ID
		}
		if have[f.ID] {
			continue
		}
		n, err := copySSTable(f.Path, filepath.Join(dir, filepath.Base(f.Path)))
		if err != nil {
			complete = false
			if os.IsNotExist(err) {
				// Compacted away mid-ship; the splice queued a fresh
				// notification that will ship its replacement.
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.mu.Lock()
		budget := r.budget
		r.mu.Unlock()
		if budget != nil {
			budget.WaitBackground(int(n))
		}
		r.filesShipped.Add(1)
		r.bytesShipped.Add(n)
	}
	// Retire replica files the primary no longer has — but only those
	// older than the snapshot's newest file: an ID above maxWant means
	// the snapshot is stale (a flush landed after it), and that file's
	// own notification is still queued.
	for id := range have {
		if want[id] || id > maxWant {
			continue
		}
		if err := os.Remove(filepath.Join(dir, durable.SSTableFileName(id))); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.filesRetired.Add(1)
	}
	if err := durable.SyncDir(dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return complete && firstErr == nil, firstErr
}

// listSSTables enumerates the SSTable IDs already present in dir,
// removing stale temp files (the debris of a copy killed mid-ship).
func listSSTables(dir string) (map[uint64]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	have := make(map[uint64]bool)
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if id, ok := durable.ParseSSTableFileName(name); ok {
			have[id] = true
		}
	}
	return have, nil
}

// ListSSTables returns the SSTable IDs present in a replica or snapshot
// directory, sorted — the recovery and restore paths use it to pick the
// files to copy back into a fresh region directory. A missing directory
// is an empty replica, not an error.
func ListSSTables(dir string) ([]uint64, error) {
	have, err := listSSTables(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	ids := make([]uint64, 0, len(have))
	for id := range have {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, nil
}

// SSTablePath returns the path SSTable id occupies inside a replica or
// snapshot directory.
func SSTablePath(dir string, id uint64) string {
	return filepath.Join(dir, durable.SSTableFileName(id))
}

// CopyFile copies src to dst crash-consistently: the bytes land in a
// temp file that is fsynced and renamed into place, then the directory
// is fsynced — a crash at any point leaves either no visible file or a
// complete one, never a torn copy. It returns the bytes copied.
func CopyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	tmp := dst + ".tmp"
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := out.ReadFrom(in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return n, err
	}
	if err := os.Rename(tmp, dst); err != nil {
		_ = os.Remove(tmp)
		return n, err
	}
	return n, durable.SyncDir(filepath.Dir(dst))
}

// Stats is a snapshot of a replicator's activity.
type Stats struct {
	// QueueDepth is the number of regions awaiting reconciliation.
	QueueDepth int `json:"queue_depth"`
	// Active is the number of in-flight reconciliations.
	Active int `json:"active"`
	// FilesShipped / BytesShipped count SSTable copies to replica
	// directories; FilesRetired counts replica files removed after the
	// primary compacted them away.
	FilesShipped int64 `json:"files_shipped"`
	BytesShipped int64 `json:"bytes_shipped"`
	FilesRetired int64 `json:"files_retired"`
	// Syncs counts reconciliation rounds. Failures counts ships that hit
	// an I/O error (the next sync round or notification retries):
	// TailFailures the WAL-tail appends, generation starts and
	// deletions among them, FileFailures the SSTable reconciles.
	// LastFailure is the newest one's "<region>: <error>"; a roll-up
	// keeps one of them.
	Syncs        int64  `json:"syncs"`
	Failures     int64  `json:"failures"`
	TailFailures int64  `json:"tail_failures"`
	FileFailures int64  `json:"file_failures"`
	LastFailure  string `json:"last_failure,omitempty"`
	// TailShips / TailBytes / TailFrames count the WAL-tail appends and
	// generation starts that carried records to a follower, their
	// physical bytes, and the records.
	TailShips  int64 `json:"tail_ships"`
	TailBytes  int64 `json:"tail_bytes"`
	TailFrames int64 `json:"tail_frames"`
}

// Add returns the element-wise sum of two snapshots (cluster roll-up).
func (s Stats) Add(o Stats) Stats {
	last := o.LastFailure
	if last == "" {
		last = s.LastFailure
	}
	return Stats{
		QueueDepth:   s.QueueDepth + o.QueueDepth,
		Active:       s.Active + o.Active,
		FilesShipped: s.FilesShipped + o.FilesShipped,
		BytesShipped: s.BytesShipped + o.BytesShipped,
		FilesRetired: s.FilesRetired + o.FilesRetired,
		Syncs:        s.Syncs + o.Syncs,
		Failures:     s.Failures + o.Failures,
		TailFailures: s.TailFailures + o.TailFailures,
		FileFailures: s.FileFailures + o.FileFailures,
		LastFailure:  last,
		TailShips:    s.TailShips + o.TailShips,
		TailBytes:    s.TailBytes + o.TailBytes,
		TailFrames:   s.TailFrames + o.TailFrames,
	}
}

// Stats snapshots the replicator.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	depth, active, last := len(r.stale), r.active, r.lastFailure
	r.mu.Unlock()
	tail, file := r.tailFailures.Load(), r.fileFailures.Load()
	return Stats{
		QueueDepth:   depth,
		Active:       active,
		FilesShipped: r.filesShipped.Load(),
		BytesShipped: r.bytesShipped.Load(),
		FilesRetired: r.filesRetired.Load(),
		Syncs:        r.syncs.Load(),
		Failures:     tail + file,
		TailFailures: tail,
		FileFailures: file,
		LastFailure:  last,
		TailShips:    r.tailShips.Load(),
		TailBytes:    r.tailBytes.Load(),
		TailFrames:   r.tailFrames.Load(),
	}
}
