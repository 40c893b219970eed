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
// compaction replaced a run (kv.Config.OnFilesChanged) — the region is
// enqueued and a background worker *reconciles* each follower's replica directory
// against the primary's current stack:
//
//	<DataDir>/regions/<region>             primary store (WAL + SSTables)
//	<DataDir>/replica/<follower>/<region>  that follower's copy
//	                                       (SSTables only, same names)
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
// unflushed memstore. Each reconciliation therefore also ships the
// region's synced WAL tail — its durable-but-unflushed records, taken
// from the server's shared log (durable.WAL.SyncedTail) — as one
// atomically-replaced wal-tail.log frame file per replica directory. A
// flush empties the tail (the records moved into a shipped SSTable) and
// the next reconcile removes the file. Master.RecoverServer replays the
// shipped tail over the replica SSTables, so the loss window shrinks to
// the records no fsync covered plus shipping lag — 0 after a Quiesce.
// The tail is snapshotted before the file stack: a flush racing the
// reconcile can then only duplicate records between the tail file and a
// shipped SSTable (replay dedups by timestamp), never drop them from
// both.
//
// # Recovery ordering
//
// The replica directory is crash-consistent by construction: every
// visible file is a complete, fsynced copy of an immutable SSTable, and
// a directory holding both a compaction's inputs and its output is the
// exact state the engine itself tolerates after a crash mid-compaction
// (duplicate entries dedup at read time); the tail file is replaced
// atomically and CRC-framed, so a torn ship truncates to the last good
// record. Reopening a store over a seeded directory therefore needs no
// replication-specific recovery code — Master.RecoverServer copies the
// replica's SSTables into a fresh region directory, opens it like any
// other cold store, replays the tail file through the engine, then
// commits the new layout through the catalog (see hbase.RecoverServer
// for the commit ordering).
package replication

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/durable"
	"met/internal/kv"
	"met/internal/obs"
)

// Config tunes a Replicator. The zero value gets one worker, an
// unlimited budget and the default bounded-lag tail floor.
type Config struct {
	// Workers is the number of concurrent shipping goroutines.
	// Defaults to 1; distinct regions ship in parallel with more.
	Workers int
	// Budget, when non-nil, receives every copied byte as background
	// I/O (compaction.Budget implements this), so replication shares
	// the compaction/serving bandwidth arbitration: shipping blocks
	// when foreground traffic has depleted the budget. Tail ships are
	// exempt (see the TailFloor fields).
	Budget kv.IOBudget
	// TailFloorRecords is K in the bounded-lag guarantee: once a region
	// has accumulated K freshly synced records (NoteTailRecords) since
	// its last tail ship, its tail ships directly — bypassing both the
	// worker queue and the I/O budget, because a mid-burst reconcile can
	// sit behind budget-starved SSTable copies for arbitrarily long and
	// the loss bound would silently become "whatever the burst wrote".
	// 0 means the default (256); negative disables the record floor.
	TailFloorRecords int
	// TailFloorInterval is T in the bounded-lag guarantee: any region
	// with at least one unshipped synced record has its tail shipped at
	// least every T. 0 means the default (200ms); negative disables the
	// timer floor.
	TailFloorInterval time.Duration
}

// Tail-floor defaults (Config.TailFloorRecords/TailFloorInterval zero
// values).
const (
	DefaultTailFloorRecords  = 256
	DefaultTailFloorInterval = 200 * time.Millisecond
)

// target is one tracked region: how to snapshot its primary file stack
// and synced WAL tail, and where its replicas live. All are closures so
// the replicator always sees the region's *current* store and follower
// set — a server restart swaps the store, a follower re-pick changes
// the destinations, and none needs to re-register.
type target struct {
	files func() ([]kv.ExportedFile, bool)
	dests func() []string
	tail  func() []kv.Entry

	// tailMu serializes tail ships for this region across the worker
	// and floor goroutines: the tail is snapshotted and written under
	// it, so an older snapshot can never overwrite a newer file.
	tailMu sync.Mutex
	// lag counts synced-but-unshipped records (guarded by Replicator.mu;
	// reset under tailMu *before* the snapshot, so every counted record
	// is in the snapshot that zeroed it).
	lag int
}

// Replicator ships immutable SSTables to follower replica directories,
// one per region server. Notifications coalesce: a region enqueued ten
// times before a worker gets to it is reconciled once, against the
// newest stack.
type Replicator struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	targets map[string]*target
	queued  map[string]bool
	queue   []string // FIFO of region names
	active  int
	closed  bool
	wg      sync.WaitGroup

	// kick wakes the tail-floor goroutine when some region's lag crossed
	// TailFloorRecords (buffered: one pending wake is enough — the floor
	// re-scans every lagged region per wake). stopc ends the goroutine.
	kick  chan struct{}
	stopc chan struct{}

	filesShipped   atomic.Int64
	bytesShipped   atomic.Int64
	filesRetired   atomic.Int64
	tailFailures   atomic.Int64
	fileFailures   atomic.Int64
	lastFailure    string // "<region>: <err>" of the newest failed ship; guarded by mu
	syncs          atomic.Int64
	tailShips      atomic.Int64
	tailBytes      atomic.Int64
	tailFrames     atomic.Int64
	tailFloorShips atomic.Int64

	// shipHist times replica-directory reconciles that copied at least
	// one SSTable; tailHist times WAL-tail frame-file ships.
	shipHist obs.Histogram
	tailHist obs.Histogram
}

// New starts a replicator with cfg.Workers background workers plus, when
// the bounded-lag tail floor is enabled, one floor goroutine.
func New(cfg Config) *Replicator {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.TailFloorRecords == 0 {
		cfg.TailFloorRecords = DefaultTailFloorRecords
	}
	if cfg.TailFloorInterval == 0 {
		cfg.TailFloorInterval = DefaultTailFloorInterval
	}
	r := &Replicator{
		cfg:     cfg,
		targets: make(map[string]*target),
		queued:  make(map[string]bool),
		kick:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	if cfg.TailFloorRecords > 0 || cfg.TailFloorInterval > 0 {
		r.wg.Add(1)
		go r.floorLoop()
	}
	return r
}

// Track registers a region for replication. files snapshots the
// region's current primary SSTable stack (kv.Store.ExportFiles of
// whatever store currently backs it); dests returns the absolute
// replica directories to keep in sync (one per follower); tail, when
// non-nil, snapshots the region's synced-but-unflushed WAL records
// (durable.WAL.SyncedTail) for tail streaming — nil disables it (no
// shared log, or an in-memory store). Tracking is idempotent by region
// name; re-tracking replaces the closures.
func (r *Replicator) Track(region string, files func() ([]kv.ExportedFile, bool), dests func() []string, tail func() []kv.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.targets[region] = &target{files: files, dests: dests, tail: tail}
}

// Untrack stops replicating a region (it moved away or was retired).
// In-flight reconciliation of the region finishes; queued work is
// dropped at pop time.
func (r *Replicator) Untrack(region string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.targets, region)
}

// Notify enqueues a tracked region for reconciliation. Repeated
// notifications for the same region coalesce until a worker pops it.
func (r *Replicator) Notify(region string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.targets[region] == nil || r.queued[region] {
		return
	}
	r.queued[region] = true
	r.queue = append(r.queue, region)
	// Broadcast, not Signal: workers and Quiesce callers share the
	// condition variable, and a lone signal could wake a quiescer (who
	// just re-waits) instead of an idle worker.
	r.cond.Broadcast()
}

// NoteTailRecords credits region with n freshly fsync-covered records
// (the WAL's OnSynced counts). When the accumulated lag reaches
// Config.TailFloorRecords the floor goroutine is woken to ship the
// region's tail directly — the "ship at least every K records" half of
// the bounded-lag guarantee. Must never block: it runs on a committing
// writer's goroutine.
func (r *Replicator) NoteTailRecords(region string, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	t := r.targets[region]
	var over bool
	if t != nil && !r.closed {
		t.lag += n
		over = r.cfg.TailFloorRecords > 0 && t.lag >= r.cfg.TailFloorRecords
	}
	r.mu.Unlock()
	if over {
		select {
		case r.kick <- struct{}{}:
		default: // a wake is already pending; the floor re-scans all lag
		}
	}
}

// floorLoop is the bounded-lag tail shipper: woken by NoteTailRecords
// when any region's lag crosses the record floor, and by a ticker so no
// synced record waits longer than the interval floor. It ships tails
// directly — not through the worker queue, whose budget-charged SSTable
// copies can starve for arbitrarily long mid-burst.
func (r *Replicator) floorLoop() {
	defer r.wg.Done()
	var tick <-chan time.Time
	if r.cfg.TailFloorInterval > 0 {
		ticker := time.NewTicker(r.cfg.TailFloorInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-r.stopc:
			return
		case <-r.kick:
			r.shipLagged(r.cfg.TailFloorRecords)
		case <-tick:
			r.shipLagged(1)
		}
	}
}

// shipLagged ships the tail of every region whose lag is at least min.
func (r *Replicator) shipLagged(min int) {
	if min < 1 {
		min = 1
	}
	type lagged struct {
		region string
		t      *target
	}
	var work []lagged
	r.mu.Lock()
	for region, t := range r.targets {
		if t.lag >= min && t.tail != nil {
			work = append(work, lagged{region, t})
		}
	}
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	for _, w := range work {
		if err := r.shipTail(w.t, true); err != nil {
			r.fail(&r.tailFailures, w.region, err)
		}
	}
}

// fail counts one failed ship under its kind and keeps the error's
// text: a counter alone cannot say what went wrong. The next
// notification or floor tick retries the ship.
func (r *Replicator) fail(kind *atomic.Int64, region string, err error) {
	kind.Add(1)
	r.mu.Lock()
	r.lastFailure = region + ": " + err.Error()
	r.mu.Unlock()
}

// Quiesce blocks until every queued notification has been reconciled
// and no worker is mid-ship — the "replication caught up" barrier the
// failover gate uses between a clean flush and a hard kill. New
// notifications arriving during the wait extend it.
func (r *Replicator) Quiesce() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.queue) > 0 || r.active > 0 {
		r.cond.Wait()
	}
}

// Close stops the workers after the in-flight reconciliations finish;
// queued work is dropped. A closed replicator ignores Track/Notify.
func (r *Replicator) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.queue = nil
	r.queued = make(map[string]bool)
	r.cond.Broadcast()
	r.mu.Unlock()
	close(r.stopc)
	r.wg.Wait()
}

func (r *Replicator) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		region := r.queue[0]
		r.queue = r.queue[1:]
		delete(r.queued, region)
		t := r.targets[region]
		r.active++
		r.mu.Unlock()

		if t != nil {
			// The tail ships before the stack is snapshotted, so a racing
			// flush duplicates records between the two (replay dedups)
			// rather than dropping them from both.
			if err := r.shipTail(t, false); err != nil {
				r.fail(&r.tailFailures, region, err)
			}
			if err := r.syncFiles(t); err != nil {
				r.fail(&r.fileFailures, region, err)
			}
			r.syncs.Add(1)
		}

		r.mu.Lock()
		r.active--
		// Wake Quiesce waiters (and idle workers racing a concurrent
		// enqueue; spurious wakeups re-check the loop condition).
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// syncFiles reconciles every destination directory against one
// snapshot of the primary stack. A primary file unlinked between the
// snapshot and the copy (a racing compaction) is skipped: the
// compaction latched a fresh notification, so the region re-reconciles
// against the post-compaction stack.
func (r *Replicator) syncFiles(t *target) error {
	files, ok := t.files()
	if !ok {
		return nil // in-memory backend: nothing shippable
	}
	var firstErr error
	for _, dir := range t.dests() {
		shippedBefore := r.filesShipped.Load()
		shipStart := time.Now()
		if err := r.syncDir(dir, files); err != nil && firstErr == nil {
			firstErr = err
		}
		if r.filesShipped.Load() > shippedBefore {
			r.shipHist.Since(shipStart)
		}
	}
	return firstErr
}

// shipTail writes one fresh snapshot of the region's synced WAL tail to
// every replica directory. Both the worker reconcile and the bounded-lag
// floor land here; t.tailMu serializes them so an older snapshot can
// never overwrite a newer file, and the lag counter is zeroed under it
// *before* the snapshot is taken, so every record the counter credited
// is inside the snapshot that cleared it.
//
// Tail bytes are deliberately NOT charged to the background I/O budget:
// the tail is small (bounded by the unflushed working set), and the
// bounded-lag loss guarantee depends on it shipping even while the
// budget is drained by a write burst — the exact moment the guarantee
// matters most.
func (r *Replicator) shipTail(t *target, floor bool) error {
	if t.tail == nil {
		return nil
	}
	t.tailMu.Lock()
	defer t.tailMu.Unlock()
	r.mu.Lock()
	t.lag = 0
	r.mu.Unlock()
	tail := t.tail()
	var firstErr error
	for _, dir := range t.dests() {
		if len(tail) > 0 {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		tailStart := time.Now()
		n, err := durable.WriteTailFile(durable.TailFilePath(dir), tail, false)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if n > 0 {
			r.tailHist.Since(tailStart)
			r.tailShips.Add(1)
			r.tailBytes.Add(n)
			r.tailFrames.Add(int64(len(tail)))
			if floor {
				r.tailFloorShips.Add(1)
			}
		}
	}
	return firstErr
}

// ShipLatency returns the distribution of replica reconcile durations
// that copied at least one SSTable.
func (r *Replicator) ShipLatency() obs.Snapshot { return r.shipHist.Snapshot() }

// TailShipLatency returns the distribution of WAL-tail ship durations.
func (r *Replicator) TailShipLatency() obs.Snapshot { return r.tailHist.Snapshot() }

// syncDir makes dir hold exactly the snapshot's SSTables (modulo files
// newer than the snapshot, which a pending notification owns).
func (r *Replicator) syncDir(dir string, files []kv.ExportedFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	have, _, err := listSSTables(dir)
	if err != nil {
		return err
	}
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
		n, err := CopyFile(f.Path, filepath.Join(dir, filepath.Base(f.Path)))
		if err != nil {
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
		if r.cfg.Budget != nil {
			r.cfg.Budget.WaitBackground(int(n))
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
	if err := syncDirEntry(dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// listSSTables enumerates the SSTable IDs already present in dir,
// removing stale temp files (the debris of a copy killed mid-ship).
func listSSTables(dir string) (map[uint64]bool, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	have := make(map[uint64]bool)
	var max uint64
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		id, ok := durable.ParseSSTableFileName(name)
		if !ok {
			continue
		}
		have[id] = true
		if id > max {
			max = id
		}
	}
	return have, max, nil
}

// ListSSTables returns the SSTable IDs present in a replica or snapshot
// directory, sorted — the recovery and restore paths use it to pick the
// files to copy back into a fresh region directory. A missing directory
// is an empty replica, not an error.
func ListSSTables(dir string) ([]uint64, error) {
	have, _, err := listSSTables(dir)
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
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
	return n, syncDirEntry(filepath.Dir(dst))
}

// syncDirEntry fsyncs a directory so renames and removals in it are
// durable.
func syncDirEntry(dir string) error {
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
	// an I/O error (the next notification or floor tick retries):
	// TailFailures the WAL-tail ships among them, from a reconcile or
	// the floor, FileFailures the SSTable reconciles. LastFailure is the
	// newest one's "<region>: <error>"; a roll-up keeps one of them.
	Syncs        int64  `json:"syncs"`
	Failures     int64  `json:"failures"`
	TailFailures int64  `json:"tail_failures"`
	FileFailures int64  `json:"file_failures"`
	LastFailure  string `json:"last_failure,omitempty"`
	// TailShips / TailBytes / TailFrames count WAL-tail files written to
	// replica directories, their physical bytes, and the records they
	// carried (empty tails remove the file and count nothing).
	// TailFloorShips counts the subset forced by the bounded-lag floor
	// (K records / T ms) rather than a worker reconcile.
	TailShips      int64 `json:"tail_ships"`
	TailBytes      int64 `json:"tail_bytes"`
	TailFrames     int64 `json:"tail_frames"`
	TailFloorShips int64 `json:"tail_floor_ships"`
}

// Add returns the element-wise sum of two snapshots (cluster roll-up).
func (s Stats) Add(o Stats) Stats {
	last := o.LastFailure
	if last == "" {
		last = s.LastFailure
	}
	return Stats{
		QueueDepth:     s.QueueDepth + o.QueueDepth,
		Active:         s.Active + o.Active,
		FilesShipped:   s.FilesShipped + o.FilesShipped,
		BytesShipped:   s.BytesShipped + o.BytesShipped,
		FilesRetired:   s.FilesRetired + o.FilesRetired,
		Syncs:          s.Syncs + o.Syncs,
		Failures:       s.Failures + o.Failures,
		TailFailures:   s.TailFailures + o.TailFailures,
		FileFailures:   s.FileFailures + o.FileFailures,
		LastFailure:    last,
		TailShips:      s.TailShips + o.TailShips,
		TailBytes:      s.TailBytes + o.TailBytes,
		TailFrames:     s.TailFrames + o.TailFrames,
		TailFloorShips: s.TailFloorShips + o.TailFloorShips,
	}
}

// Stats snapshots the replicator.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	depth, active, last := len(r.queue), r.active, r.lastFailure
	r.mu.Unlock()
	tail, file := r.tailFailures.Load(), r.fileFailures.Load()
	return Stats{
		QueueDepth:     depth,
		Active:         active,
		FilesShipped:   r.filesShipped.Load(),
		BytesShipped:   r.bytesShipped.Load(),
		FilesRetired:   r.filesRetired.Load(),
		Syncs:          r.syncs.Load(),
		Failures:       tail + file,
		TailFailures:   tail,
		FileFailures:   file,
		LastFailure:    last,
		TailShips:      r.tailShips.Load(),
		TailBytes:      r.tailBytes.Load(),
		TailFrames:     r.tailFrames.Load(),
		TailFloorShips: r.tailFloorShips.Load(),
	}
}
