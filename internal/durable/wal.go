package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/kv"
	"met/internal/obs"
)

const (
	walMagic   = "METW"
	walVersion = 2 // region-tagged frames (shared, server-wide log)
	// walVersionV1 is the legacy single-store format: frames carry no
	// region field. Readable forever; never written anymore.
	walVersionV1    = 1
	walHeaderSize   = 5
	frameHeaderSize = 8 // length (4, LE) + crc32c (4, LE)
	walTombstone    = 1 << 0
	// walDrop marks a region-drop record: every record for the same
	// region appended before it is obsolete (the region's store was
	// discarded). Replay applies markers in order, so a later store that
	// re-mints the same region name cannot resurrect a predecessor's
	// records.
	walDrop = 1 << 1
	// maxFrameBytes bounds a decoded frame length so a corrupt length
	// field cannot drive a huge allocation.
	maxFrameBytes = 1 << 30
)

// Hooks for the truncation and sync paths, swappable by tests (slow
// filesystems, failing fsyncs). Production never touches them.
var (
	walRemoveFile = os.Remove
	walSyncFile   = syncFile
)

// walRecord is one decoded log record: an entry tagged with the region
// whose store appended it (empty for a backend's private log and for v1
// frames), or a region-drop marker.
type walRecord struct {
	region string
	drop   bool
	e      kv.Entry
}

// walSegment is the in-memory record of one sealed on-disk segment.
type walSegment struct {
	path string
	// maxTS maps each region with live records in this segment to its
	// newest timestamp here. The segment may be deleted only when every
	// one of those regions has flushed past that timestamp (or was
	// dropped) — the truncation rule of the shared log.
	maxTS map[string]uint64
	count int
}

// covered reports whether the segment holds nothing recovery still
// needs: every region with records here has flushed past its newest
// record (or carries a drop marker).
func (s *walSegment) covered(flushed map[string]uint64, dropped map[string]bool) bool {
	for region, max := range s.maxTS {
		if dropped[region] {
			continue
		}
		if flushed[region] < max {
			return false
		}
	}
	return true
}

// tailRec is one unflushed record retained in memory for tail-streaming
// (Options.KeepTail): the replicator ships its synced records to
// followers so a failover can replay what the memstore held. seq is the
// record's log position, 0 for records recovered at open.
type tailRec struct {
	seq    uint64
	region string
	e      kv.Entry
}

// WAL is the segmented, group-committed write-ahead log. One WAL serves
// a whole RegionServer: every hosted region appends through a
// region-scoped handle (Region), so N regions share one fsync stream —
// HBase's one-log-per-server design. Stores never touch a WAL directly;
// a Backend that owns a private log appends through the handle named ""
// (the region name v1 frames also decode to).
//
// Records are framed with CRC32C, segments rotate at a size threshold,
// and Truncate deletes whole segments once *every* region's flushed
// high-water mark passes the segment's per-region maxima. Commit
// acknowledgement batches concurrent writers into a single fsync (group
// commit; see the package documentation for the leader/follower
// protocol).
//
// Locking: mu serializes appends, rotation, truncation and replay.
// Commit waiters synchronize on the separate committer lock so that an
// in-flight fsync never blocks appends — that overlap is what gives
// group commit its batching. Lock order is mu before committer.mu is
// never required: the sync leader samples (file, seq) under mu while NOT
// holding committer.mu, so the two locks never nest in both orders.
type WAL struct {
	dir  string
	opts Options

	mu          sync.Mutex
	active      *os.File
	activeIdx   uint64
	activePath  string
	activeBytes int64
	activeMaxTS map[string]uint64
	activeCount int
	sealed      []walSegment // oldest first
	seq         uint64       // records buffered so far (monotonic)
	syncs       int64        // successful commit-path sync rounds
	closed      bool

	flushed map[string]uint64 // per-region flushed high-water marks
	dropped map[string]bool   // regions whose records a drop marker voids
	pending map[string]bool   // regions appended to since the last good fsync
	// tail holds the unflushed records in seq order (KeepTail), plus
	// flushed ones a region's shipping cursor had not passed at the flush.
	tail   []tailRec
	cursor map[string]uint64 // per-region shipping position (TailFrom)

	// bytesAppended counts physical log bytes (frames + segment
	// headers); appends also report to opts.Account for the shared
	// foreground I/O budget.
	bytesAppended atomic.Int64

	// fsyncHist is the lock-free distribution of successful commit-path
	// fsync round durations (met/internal/obs).
	fsyncHist obs.Histogram

	committer committer
}

// FsyncLatency returns the distribution of successful commit-path
// fsync round durations.
func (w *WAL) FsyncLatency() obs.Snapshot { return w.fsyncHist.Snapshot() }

// committer implements the group-commit rendezvous: the first waiter
// becomes the leader, fsyncs the active segment once, and advances
// synced past every record buffered before the fsync; followers just
// wait.
type committer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	synced  uint64 // highest record number covered by an fsync
	leading bool
	err     error  // last failed round's error
	failed  uint64 // highest record number the failed round covered
}

// OpenWAL opens (or creates) the log in dir. Existing segments — from a
// previous process, crashed or not — are all sealed; appends go to a
// fresh segment, so recovery state is never appended to in place.
func OpenWAL(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:     dir,
		opts:    opts,
		flushed: make(map[string]uint64),
		dropped: make(map[string]bool),
		pending: make(map[string]bool),
		cursor:  make(map[string]uint64),
	}
	w.committer.cond = sync.NewCond(&w.committer.mu)

	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths) // zero-padded indices sort numerically
	maxIdx := uint64(0)
	for _, p := range paths {
		var idx uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &idx); err != nil {
			continue
		}
		seg := walSegment{path: p, maxTS: make(map[string]uint64)}
		// Scan for metadata; torn tails are fine here (recovery proper
		// re-reads the segment and stops at the same point). A drop
		// marker voids the region's records in every earlier segment, so
		// those records must not pin segments either.
		_ = readSegment(p, func(r walRecord) {
			seg.count++
			if r.drop {
				w.dropped[r.region] = true
				for i := range w.sealed {
					delete(w.sealed[i].maxTS, r.region)
				}
				delete(seg.maxTS, r.region)
				w.dropTailLocked(r.region, ^uint64(0), ^uint64(0))
				return
			}
			delete(w.dropped, r.region)
			if r.e.Timestamp > seg.maxTS[r.region] {
				seg.maxTS[r.region] = r.e.Timestamp
			}
			// Recovered records are durable-but-unflushed until a flush
			// truncation says otherwise — exactly the tail invariant. A
			// restarted server must keep offering them to the replicator,
			// or an empty post-restart tail ship would revoke the
			// followers' coverage of records that now exist only in this
			// server's memstores and its own log. Zero seq keeps them
			// below every future fsync watermark (immediately shippable).
			if opts.KeepTail {
				w.tail = append(w.tail, tailRec{region: r.region, e: r.e})
			}
		})
		w.sealed = append(w.sealed, seg)
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if err := w.openSegmentLocked(maxIdx + 1); err != nil {
		return nil, err
	}
	return w, nil
}

// Region returns the append/truncate/replay handle for one region's
// records in the shared log. The handle implements kv.WAL, so a
// kv.Store plugs it in as its log. Registering a name clears a pending
// drop marker for it — a re-minted region starts with a clean slate and
// a zero flush high-water mark.
func (w *WAL) Region(name string) *RegionLog {
	w.mu.Lock()
	if w.dropped[name] {
		delete(w.dropped, name)
		// The marker voided the predecessor's records; purge its
		// bookkeeping so stale maxima cannot pin segments against the
		// new store's (restarted) flush clock.
		for i := range w.sealed {
			delete(w.sealed[i].maxTS, name)
		}
		delete(w.activeMaxTS, name)
	}
	// The new store's flush clock starts from its own recovered state; a
	// stale high-water mark must not mark its future records as covered.
	delete(w.flushed, name)
	w.mu.Unlock()
	return &RegionLog{w: w, name: name}
}

// openSegmentLocked creates and becomes the active segment idx.
func (w *WAL) openSegmentLocked(idx uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%016d.log", idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := (meteredWriter{w: f, count: &w.bytesAppended}).Write(hdr); err != nil {
		f.Close()
		return err
	}
	w.active = f
	w.activeIdx = idx
	w.activePath = path
	w.activeBytes = walHeaderSize
	w.activeMaxTS = make(map[string]uint64)
	w.activeCount = 0
	return syncDir(w.dir, w.opts.NoSync)
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one. Because the outgoing segment is fsynced, every record
// buffered so far is durable; the committer is advanced so pending
// commit waiters return without another fsync. Regions stay in the
// pending set — the next commit-path sync (or an explicit replication
// reconcile) notifies them.
func (w *WAL) rotateLocked() error {
	if err := syncFile(w.active, w.opts.NoSync); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, walSegment{
		path: w.activePath, maxTS: w.activeMaxTS, count: w.activeCount,
	})
	seq := w.seq
	if err := w.openSegmentLocked(w.activeIdx + 1); err != nil {
		return err
	}
	c := &w.committer
	c.mu.Lock()
	if seq > c.synced {
		c.synced = seq
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	return nil
}

// encodeRecord serializes one record as a CRC32C-framed v2 frame.
func encodeRecord(region string, e kv.Entry, drop bool) []byte {
	payload := make([]byte, 0, 2+binary.MaxVarintLen64*4+len(region)+len(e.Key)+len(e.Value))
	var flags byte
	if e.Tombstone {
		flags |= walTombstone
	}
	if drop {
		flags |= walDrop
	}
	payload = append(payload, flags)
	payload = binary.AppendUvarint(payload, e.Timestamp)
	payload = binary.AppendUvarint(payload, uint64(len(region)))
	payload = append(payload, region...)
	payload = binary.AppendUvarint(payload, uint64(len(e.Key)))
	payload = append(payload, e.Key...)
	payload = binary.AppendUvarint(payload, uint64(len(e.Value)))
	payload = append(payload, e.Value...)

	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	return frame
}

// decodePayload parses a frame payload back into a record. Version 1
// frames carry no region field and decode with region "".
func decodePayload(payload []byte, version byte) (walRecord, error) {
	if len(payload) < 1 {
		return walRecord{}, corruptf("empty wal payload")
	}
	flags := payload[0]
	rec := walRecord{
		drop: flags&walDrop != 0,
		e:    kv.Entry{Tombstone: flags&walTombstone != 0},
	}
	buf := payload[1:]
	ts, n := binary.Uvarint(buf)
	if n <= 0 {
		return walRecord{}, corruptf("wal timestamp")
	}
	rec.e.Timestamp = ts
	buf = buf[n:]
	if version >= walVersion {
		rlen, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < rlen {
			return walRecord{}, corruptf("wal region")
		}
		rec.region = string(buf[n : n+int(rlen)])
		buf = buf[n+int(rlen):]
	}
	klen, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < klen {
		return walRecord{}, corruptf("wal key")
	}
	rec.e.Key = string(buf[n : n+int(klen)])
	buf = buf[n+int(klen):]
	vlen, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) != vlen {
		return walRecord{}, corruptf("wal value")
	}
	if vlen > 0 {
		rec.e.Value = append([]byte(nil), buf[n:n+int(vlen)]...)
	}
	return rec, nil
}

// appendRecord writes one framed record for region and returns the
// commit function that blocks until an fsync covers it.
func (w *WAL) appendRecord(region string, e kv.Entry, drop bool) (func() error, error) {
	frame := encodeRecord(region, e, drop)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if w.activeBytes >= w.opts.SegmentBytes && w.activeCount > 0 {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return nil, err
		}
	}
	out := meteredWriter{w: w.active, count: &w.bytesAppended, account: w.opts.Account}
	if _, err := out.Write(frame); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	w.activeBytes += int64(len(frame))
	w.activeCount++
	w.seq++
	seq := w.seq
	if drop {
		w.dropped[region] = true
		delete(w.activeMaxTS, region)
		for i := range w.sealed {
			delete(w.sealed[i].maxTS, region)
		}
		delete(w.flushed, region)
		w.dropTailLocked(region, ^uint64(0), ^uint64(0))
	} else {
		delete(w.dropped, region)
		if e.Timestamp > w.activeMaxTS[region] {
			w.activeMaxTS[region] = e.Timestamp
		}
		if w.opts.KeepTail {
			cp := e
			cp.Value = append([]byte(nil), e.Value...)
			w.tail = append(w.tail, tailRec{seq: seq, region: region, e: cp})
		}
	}
	w.pending[region] = true
	w.mu.Unlock()
	return func() error { return w.commitTo(seq) }, nil
}

// Drop durably voids every record region has appended: a marker frame
// is written and fsynced, after which replay (live or after a restart)
// returns nothing for the region. Called when a region's store is
// discarded (split parent, failed daughter, moved-away region) so its
// records stop pinning segments and a re-minted region name cannot
// resurrect them.
func (w *WAL) Drop(region string) error {
	commit, err := w.appendRecord(region, kv.Entry{}, true)
	if err != nil {
		return err
	}
	return commit()
}

// commitTo blocks until record seq is fsync-covered. The first arriving
// waiter leads: it fsyncs once and credits every record buffered before
// the fsync, so all concurrent waiters are released together.
func (w *WAL) commitTo(seq uint64) error {
	c := &w.committer
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.synced >= seq {
			return nil
		}
		if c.err != nil && c.failed >= seq {
			return c.err
		}
		if c.leading {
			c.cond.Wait()
			continue
		}
		c.leading = true
		c.mu.Unlock()
		target, err := w.syncActive()
		c.mu.Lock()
		c.leading = false
		if err != nil {
			c.err = err
			if target > c.failed {
				c.failed = target
			}
		} else {
			c.err = nil
			if target > c.synced {
				c.synced = target
			}
		}
		c.cond.Broadcast()
	}
}

// syncActive fsyncs the active segment, returning the highest record
// number that fsync covers. Records in already-sealed segments were
// fsynced at rotation, so covering "everything buffered into the current
// active segment" covers everything up to the sampled sequence number.
//
// Only successful rounds count toward SyncRounds — the writes/fsync
// metric measures achieved batching, and a failed fsync durably covered
// nothing. On success the regions that gained coverage are reported to
// Options.OnSynced (off-lock), the replicator's cue to ship fresh tail.
func (w *WAL) syncActive() (uint64, error) {
	w.mu.Lock()
	f := w.active
	target := w.seq
	closed := w.closed
	var regions map[string]bool
	if w.opts.OnSynced != nil && len(w.pending) > 0 {
		regions = w.pending
		w.pending = make(map[string]bool)
	}
	w.mu.Unlock()
	if closed || f == nil {
		// Unreachable by design: Close claims the committer leader slot
		// before publishing closed, and only the current leader reaches
		// this point — so a sync leader can never observe a closed log.
		// Should the fence ever break, refuse to credit durability for
		// an fsync that may not have run: put the regions back for the
		// next round and fail loudly.
		w.mu.Lock()
		for r := range regions {
			w.pending[r] = true
		}
		w.mu.Unlock()
		return target, ErrClosed
	}
	syncStart := time.Now()
	err := walSyncFile(f, w.opts.NoSync)
	if err != nil && errors.Is(err, os.ErrClosed) {
		// A rotation sealed this segment after we sampled it; sealing
		// fsyncs first, so the records are durable.
		err = nil
	}
	if err != nil {
		// The round covered nothing: don't count it, and put the regions
		// back so the next successful round reports them.
		w.mu.Lock()
		for r := range regions {
			w.pending[r] = true
		}
		w.mu.Unlock()
		return target, err
	}
	w.fsyncHist.Since(syncStart)
	w.mu.Lock()
	w.syncs++
	w.mu.Unlock()
	if len(regions) > 0 {
		w.opts.OnSynced(regions)
	}
	return target, nil
}

// activeCoveredLocked reports whether every record in the active
// segment is flushed (or dropped), i.e. sealing it now would yield an
// immediately deletable segment.
func (w *WAL) activeCoveredLocked() bool {
	for region, max := range w.activeMaxTS {
		if w.dropped[region] {
			continue
		}
		if w.flushed[region] < max {
			return false
		}
	}
	return true
}

// dropTailLocked removes region's retained tail records with
// Timestamp <= upTo at log positions below `below`.
func (w *WAL) dropTailLocked(region string, upTo, below uint64) {
	kept := w.tail[:0]
	for _, rec := range w.tail {
		if rec.region != region || rec.e.Timestamp > upTo || rec.seq >= below {
			kept = append(kept, rec)
		}
	}
	clear(w.tail[len(kept):])
	w.tail = kept
}

// truncateRegion raises region's flushed high-water mark to upTo and
// runs a reclamation sweep. Entries <= upTo are durable elsewhere (a
// flushed SSTable), so segments whose per-region maxima are all covered
// can be deleted whole — no rewriting. A region with a shipping cursor
// (TailFrom) keeps the flushed records the cursor has not passed in
// the tail until its next flush: a flush racing a lagging shipper must
// not drop records the shipper has not read yet.
func (w *WAL) truncateRegion(region string, upTo uint64) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if upTo > w.flushed[region] {
		w.flushed[region] = upTo
	}
	below, ok := w.cursor[region]
	if !ok {
		below = ^uint64(0)
	}
	w.dropTailLocked(region, upTo, below)
	w.mu.Unlock()
	w.sweep()
}

// sweep is the segment-reclamation pass shared by truncation and
// DropAbsent: seal the active segment if everything in it is covered,
// then delete the covered prefix of sealed segments. Deletable segments
// are taken strictly oldest-first (a prefix): a drop marker voids
// records in *earlier* segments, so a marker's segment must outlive
// them on disk or a crash could resurrect what it voided.
//
// The unlink and directory sync run after the lock is released —
// directory I/O on a slow filesystem must not stall concurrent appends
// (every flush truncates, so this is a hot path).
func (w *WAL) sweep() {
	var doomed []string
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if w.activeCount > 0 && w.activeCoveredLocked() {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return // keep the data; reclamation is only an optimization
		}
	}
	cut := 0
	for cut < len(w.sealed) && w.sealed[cut].covered(w.flushed, w.dropped) {
		doomed = append(doomed, w.sealed[cut].path)
		cut++
	}
	if cut > 0 {
		w.sealed = append([]walSegment(nil), w.sealed[cut:]...)
	}
	w.mu.Unlock()
	if len(doomed) > 0 {
		for _, p := range doomed {
			_ = walRemoveFile(p)
		}
		//lint:allow syncerr truncation is an optimization: a missed dir sync only resurrects removed segments, whose records replay as already-flushed
		_ = syncDir(w.dir, w.opts.NoSync)
	}
}

// DropAbsent durably voids the records of every region present in the
// log but absent from live, then sweeps reclaimable segments. It closes
// a cold-start leak: a region that moved away before the last shutdown
// left records in this server's log, and since the region never
// re-registers here after a restart its flush clock never advances —
// without a drop marker those records pin their segments forever.
// OpenCluster calls this once per revived server, after every region
// the catalog assigns to it has been reopened.
//
// Markers append to the active (newest) segment, and the sweep deletes
// covered segments strictly oldest-first, so a marker always outlives
// the records it voids. Returns the region names dropped (sorted).
func (w *WAL) DropAbsent(live map[string]bool) ([]string, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	present := make(map[string]bool)
	for i := range w.sealed {
		for region := range w.sealed[i].maxTS {
			present[region] = true
		}
	}
	for region := range w.activeMaxTS {
		present[region] = true
	}
	for _, rec := range w.tail {
		present[rec.region] = true
	}
	var orphans []string
	for region := range present {
		// "" is a backend's private-log handle — never a
		// catalog-registered region, never an orphan.
		if region == "" || live[region] || w.dropped[region] {
			continue
		}
		orphans = append(orphans, region)
	}
	w.mu.Unlock()
	if len(orphans) == 0 {
		return nil, nil
	}
	sort.Strings(orphans)
	var last func() error
	for _, region := range orphans {
		commit, err := w.appendRecord(region, kv.Entry{}, true)
		if err != nil {
			return nil, err
		}
		last = commit
	}
	// One group commit covers every marker buffered above.
	if err := last(); err != nil {
		return nil, err
	}
	w.sweep()
	return orphans, nil
}

// ReplayReport describes what recovery found.
type ReplayReport struct {
	// Replayed is the number of records returned.
	Replayed int //lint:allow deadfield test oracle: WAL.Replay's report
	// Torn is true when replay stopped before the end of the log —
	// a torn tail after a crash, or mid-log corruption.
	Torn bool //lint:allow deadfield test oracle: WAL.Replay's report
	// TornSegment is the path of the segment replay stopped in.
	TornSegment string //lint:allow deadfield test oracle: WAL.Replay's report
}

// replayRecords reads every intact record, oldest segment first, in
// append order, applying drop markers (a marker removes the region's
// earlier records from the result). Caller holds w.mu.
func (w *WAL) replayRecords() ([]walRecord, ReplayReport, error) {
	var recs []walRecord
	var report ReplayReport
	segs := append([]walSegment(nil), w.sealed...)
	if w.activeCount > 0 {
		segs = append(segs, walSegment{path: w.activePath})
	}
	for _, seg := range segs {
		err := readSegment(seg.path, func(r walRecord) {
			if r.drop {
				kept := recs[:0]
				for _, rr := range recs {
					if rr.region != r.region {
						kept = append(kept, rr)
					}
				}
				recs = kept
				return
			}
			recs = append(recs, r)
		})
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				report.Torn = true
				report.TornSegment = seg.path
				break
			}
			return nil, report, err
		}
	}
	report.Replayed = len(recs)
	return recs, report, nil
}

// Replay reads every intact record across all regions, oldest segment
// first, in append order — the recovery stream. It stops at the first
// bad frame (short header, short payload, checksum mismatch, or
// undecodable payload): everything before it is returned, everything
// after is dropped, exactly the contract a physical log can honor after
// a crash.
func (w *WAL) Replay() ([]kv.Entry, ReplayReport, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs, report, err := w.replayRecords()
	if err != nil {
		return nil, report, err
	}
	entries := make([]kv.Entry, 0, len(recs))
	for _, r := range recs {
		entries = append(entries, r.e)
	}
	return entries, report, nil
}

// replayRegion returns the intact records belonging to one region.
func (w *WAL) replayRegion(region string) ([]kv.Entry, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs, _, err := w.replayRecords()
	if err != nil {
		return nil, err
	}
	var entries []kv.Entry
	for _, r := range recs {
		if r.region == region {
			entries = append(entries, r.e)
		}
	}
	return entries, nil
}

// TailFrom returns region's synced tail records at log positions in
// [from, to), and the position that follows them: everything an fsync
// has covered that no flush has truncated yet, up to to. It is the
// replicator's cursor into the log — a follower's tail starts with
// TailFrom(region, 0, math.MaxUint64) and then grows by
// TailFrom(region, next, math.MaxUint64) on each later sync round; a
// bounded to re-reads exactly what an earlier call covered. from is
// also the cursor a flush truncates against: flushed records at or past
// it stay in the tail until the region's next flush, so a lagging
// shipper still reads what it has not shipped. A position counts
// appended records; records recovered at open sit at position 0, and a
// position past every record lets the next flush drop all. Requires
// Options.KeepTail.
func (w *WAL) TailFrom(region string, from, to uint64) ([]kv.Entry, uint64) {
	c := &w.committer
	c.mu.Lock()
	to = min(to, c.synced+1)
	c.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cursor[region] = from
	var out []kv.Entry
	i := sort.Search(len(w.tail), func(i int) bool { return w.tail[i].seq >= from })
	for _, rec := range w.tail[i:] {
		if rec.seq >= to {
			break
		}
		if rec.region == region {
			out = append(out, rec.e)
		}
	}
	return out, to
}

// readSegment streams a segment's intact records into fn. A torn or
// corrupt frame yields ErrCorrupt; records before it are still
// delivered.
func readSegment(path string, fn func(walRecord)) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(buf) < walHeaderSize || string(buf[:4]) != walMagic {
		return corruptf("wal segment header %s", filepath.Base(path))
	}
	version := buf[4]
	if version != walVersionV1 && version != walVersion {
		return fmt.Errorf("durable: unsupported wal version %d in %s", version, filepath.Base(path))
	}
	buf = buf[walHeaderSize:]
	for len(buf) > 0 {
		if len(buf) < frameHeaderSize {
			return corruptf("torn frame header in %s", filepath.Base(path))
		}
		length := binary.LittleEndian.Uint32(buf[0:4])
		sum := binary.LittleEndian.Uint32(buf[4:8])
		if length > maxFrameBytes || uint64(len(buf)-frameHeaderSize) < uint64(length) {
			return corruptf("torn frame payload in %s", filepath.Base(path))
		}
		payload := buf[frameHeaderSize : frameHeaderSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return corruptf("frame checksum mismatch in %s", filepath.Base(path))
		}
		rec, err := decodePayload(payload, version)
		if err != nil {
			return err
		}
		fn(rec)
		buf = buf[frameHeaderSize+int(length):]
	}
	return nil
}

// SetAccount swaps the foreground-accounting hook (Options.Account) the
// log charges its append bytes to. A region move re-homes a live store
// onto another server, whose I/O budget must absorb the WAL traffic from
// then on; appends read the hook under the same mutex, so the swap is
// race-free and takes effect at the next append. fn may be nil
// (accounting off).
func (w *WAL) SetAccount(fn func(bytes int)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opts.Account = fn
}

// BytesAppended returns the physical bytes written to the log so far.
func (w *WAL) BytesAppended() int64 { return w.bytesAppended.Load() }

// Appends returns the number of records buffered so far.
func (w *WAL) Appends() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(w.seq)
}

// SyncRounds returns how many commit-path sync rounds have succeeded;
// with N concurrent writers — across any number of regions on a shared
// log — it stays well below N appends (group commit).
func (w *WAL) SyncRounds() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// SegmentCount returns the number of on-disk segments (sealed + active).
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// Close fsyncs and closes the active segment. Pending commit waiters
// are released — successfully when the final fsync succeeded (their
// records are durable), with the fsync error otherwise.
//
// Ordering: Close first claims the committer leader slot, so no commit
// round is in flight, and only then publishes closed and runs the final
// fsync. A sync leader therefore can never observe closed == true —
// doing so would require Close to hold the leader slot the observer
// itself holds — so no commit round can acknowledge records whose
// covering fsync has not actually run, and a failed final fsync reaches
// every waiter instead of being masked by an optimistic synced credit.
func (w *WAL) Close() error {
	c := &w.committer
	c.mu.Lock()
	for c.leading {
		c.cond.Wait()
	}
	c.leading = true
	c.mu.Unlock()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		c.mu.Lock()
		c.leading = false
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil
	}
	w.closed = true // fences appendRecord: seq is final from here on
	seq := w.seq
	f := w.active
	w.mu.Unlock()

	// The final fsync runs outside w.mu like every other sync round
	// (locksafe gate). The fd cannot rotate out from under us: rotation
	// runs under w.mu and appendRecord refuses once closed is set.
	err := walSyncFile(f, w.opts.NoSync)
	if cerr := f.Close(); err == nil {
		err = cerr
	}

	c.mu.Lock()
	c.leading = false
	if err == nil {
		if seq > c.synced {
			c.synced = seq
		}
	} else {
		c.err = err
		if seq > c.failed {
			c.failed = seq
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return err
}

// RegionLog is a region-scoped handle on a WAL, implementing kv.WAL:
// appends tag records with the region name, Truncate raises only this
// region's flushed high-water mark (segments are reclaimed when every
// region's mark passes them), and replay filters to this region's
// records.
type RegionLog struct {
	w    *WAL
	name string
}

// Owner returns the shared WAL this handle appends to; the hosting
// layer uses it to detect a store still wired to another server's log
// after a region move.
func (h *RegionLog) Owner() *WAL { return h.w }

// Name returns the region name the handle scopes to.
func (h *RegionLog) Name() string { return h.name }

// Append appends and waits for durability — AppendBuffered plus its
// commit, for callers outside the engine (probes, tests).
func (h *RegionLog) Append(e kv.Entry) error {
	commit, err := h.w.appendRecord(h.name, e, false)
	if err != nil {
		return err
	}
	return commit()
}

// AppendBuffered implements kv.WAL: the record is written to the active
// segment (establishing its replay position) and the returned commit
// blocks until an fsync covers it.
func (h *RegionLog) AppendBuffered(e kv.Entry) (func() error, error) {
	return h.w.appendRecord(h.name, e, false)
}

// Truncate implements kv.WAL: this region's entries <= upTo are durable
// in a flushed SSTable.
func (h *RegionLog) Truncate(upTo uint64) { h.w.truncateRegion(h.name, upTo) }

// Replay implements kv.WAL, the recovery entry point of kv.OpenStore: a
// torn tail or mid-log corruption is an expected crash artifact and
// only truncates the result, but a real I/O error fails recovery
// loudly — silently returning a partial log would break the
// acknowledged-writes-survive guarantee.
func (h *RegionLog) Replay() ([]kv.Entry, error) {
	return h.w.replayRegion(h.name)
}

var _ kv.WAL = (*RegionLog)(nil)
