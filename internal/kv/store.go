package kv

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/obs"
)

// fileIDCounter mints store-file IDs that are unique process-wide, so
// stores sharing one BlockCache can never collide on cache keys. Durable
// backends persist IDs inside file names; OpenStore bumps the counter
// past every ID it loads so new files never collide with recovered ones.
var fileIDCounter atomic.Uint64

func nextFileID() uint64 { return fileIDCounter.Add(1) }

// bumpFileID raises the counter to at least floor.
func bumpFileID(floor uint64) {
	for {
		cur := fileIDCounter.Load()
		if cur >= floor || fileIDCounter.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// StorageBackend persists a store's immutable files and provides its
// write-ahead log. The engine calls it with sorted entries at flush and
// compaction time and asks it to enumerate surviving files at open time;
// everything else (caching, indexes, iterators, recovery ordering) is
// engine-side. The memory backend is implicit (a nil backend); the
// durable implementation lives in met/internal/durable.
type StorageBackend interface {
	// WAL returns the backend's write-ahead log, or nil when the backend
	// does not log (Config.WAL then still applies).
	WAL() WAL
	// Create persists sorted entries as immutable file id and returns
	// its reader. The file must be durable when Create returns, because
	// the engine truncates the WAL after a flush.
	Create(id uint64, entries []Entry, blockBytes int) (*StoreFile, error)
	// Remove deletes a file retired by a compaction, releasing its
	// reader. The engine calls it only once no in-flight iteration can
	// still reference the file (see drainRetired), so implementations
	// may close handles eagerly.
	Remove(id uint64) error
	// Load enumerates the persisted files, any order.
	Load(blockBytes int) ([]*StoreFile, error)
	// Close releases the backend's resources (open files, WAL).
	Close() error
}

// TimestampFloorCreator is an optional StorageBackend extension for
// backends that persist a per-file max-timestamp property. Compactions
// use it to pass the maximum timestamp of their input files: a merge
// that drops the newest version of a key (a shadowed put, an elided
// tombstone in a major compaction) must not regress the output file's
// recorded clock, because a store seeded from that file alone (snapshot
// restore, replica failover) resumes its logical clock from the
// property — and a regressed clock breaks the dense-timestamp
// accounting failover uses to count lost writes.
type TimestampFloorCreator interface {
	// CreateWithMaxTS is Create with the file's recorded max timestamp
	// raised to at least maxTS.
	CreateWithMaxTS(id uint64, entries []Entry, blockBytes int, maxTS uint64) (*StoreFile, error)
}

// Config holds the engine knobs the paper's node profiles tune.
type Config struct {
	// MemstoreFlushBytes is the memstore size at which a flush to an
	// immutable store file is triggered (HBase: memstore size fraction
	// of the heap). Defaults to 64 MiB.
	MemstoreFlushBytes int
	// BlockCacheBytes is the block cache capacity (HBase: block cache
	// size fraction of the heap). Defaults to 256 MiB.
	BlockCacheBytes int
	// BlockBytes is the store-file block size (HBase: HFile block
	// size). Defaults to 64 KiB.
	BlockBytes int
	// MaxStoreFiles triggers an automatic minor compaction when the
	// number of files exceeds it. Defaults to 8. Zero disables.
	MaxStoreFiles int
	// Seed keeps the memstore skiplist deterministic.
	Seed uint64
	// WAL receives every mutation before it is applied. Nil disables
	// logging (unless OpenBackend supplies one).
	WAL WAL
	// OpenBackend, when set, is invoked by OpenStore to create the
	// store's durable storage backend. It is a factory rather than an
	// instance so a region reopen (server restart) can close the old
	// store's backend and open a fresh one over the same directory.
	OpenBackend func() (StorageBackend, error)
	// Cache, when non-nil, is used instead of a private cache built
	// from BlockCacheBytes. A region server shares one cache across all
	// of its regions' stores, as HBase does.
	Cache *BlockCache

	// Compactor decides who runs the compaction a flush asks for when it
	// pushes the file count over MaxStoreFiles. Either way the request is
	// served outside the engine locks, by the same CompactFiles merge.
	// Set, the trigger is fired and the scheduler is expected to call
	// CompactFiles on a goroutine of its own. Nil, the store serves
	// itself: the goroutine whose write or Flush crossed the threshold
	// merges the whole stack before its call returns.
	Compactor CompactionTrigger
	// HardMaxStoreFiles is the file count at which writers stall until
	// background compaction catches up (HBase's blockingStoreFiles).
	// Only meaningful with a Compactor — a store that compacts on its
	// own writers' goroutines has nothing asynchronous to wait for;
	// 0 defaults to 3×MaxStoreFiles, negative disables stalling.
	HardMaxStoreFiles int
	// StallTimeout bounds a single write's stall; past it the write
	// proceeds and the file count grows unbounded (reported via
	// Stats.StallNanos either way). 0 defaults to 10s.
	StallTimeout time.Duration
	// CompactionBudget, when set, rate-limits CompactFiles I/O and
	// receives foreground accounting from flushes, so compaction and
	// serving share one disk-bandwidth budget.
	CompactionBudget IOBudget
	// OnFilesChanged, when set, is invoked outside all engine locks
	// after the immutable file stack changes — a flush added a file, or
	// a compaction spliced one in. Embedders that mirror the stack into
	// an external system (HDFS bookkeeping, SSTable replication) use it
	// as their wake-up; consecutive changes may coalesce into one call,
	// so implementations must reconcile against the current stack rather
	// than assume one event per file. Swappable at runtime with
	// SetFilesChanged (a region move re-homes the store onto another
	// server's replicator).
	OnFilesChanged func()
}

func (c Config) withDefaults() Config {
	if c.MemstoreFlushBytes <= 0 {
		c.MemstoreFlushBytes = 64 << 20
	}
	if c.BlockCacheBytes < 0 {
		c.BlockCacheBytes = 0
	} else if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 256 << 20
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 64 << 10
	}
	if c.MaxStoreFiles == 0 {
		c.MaxStoreFiles = 8
	}
	// The stall ceiling is only safe when every stall has a compaction
	// request pending to release it: automatic compaction must be on,
	// and the ceiling must sit above the trigger threshold. Incoherent
	// combinations are normalized rather than left to wedge writers.
	if c.MaxStoreFiles < 0 {
		c.HardMaxStoreFiles = -1
	} else if c.HardMaxStoreFiles == 0 {
		c.HardMaxStoreFiles = 3 * c.MaxStoreFiles
	} else if c.HardMaxStoreFiles > 0 && c.HardMaxStoreFiles <= c.MaxStoreFiles {
		c.HardMaxStoreFiles = c.MaxStoreFiles + 1
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 10 * time.Second
	}
	return c
}

// storeStats holds the engine counters as atomics so the concurrent read
// path (Get/Scan under the store's read lock) can bump them without an
// exclusive lock. Stats() snapshots them into the exported Stats value.
type storeStats struct {
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
	stallNanos             atomic.Int64
	stalledWrites          atomic.Int64
	compactionQueued       atomic.Int64
}

func (st *storeStats) snapshot() Stats {
	s := Stats{
		Gets:                   st.gets.Load(),
		Puts:                   st.puts.Load(),
		Deletes:                st.deletes.Load(),
		Scans:                  st.scans.Load(),
		ScannedEntries:         st.scannedEntries.Load(),
		CacheHits:              st.cacheHits.Load(),
		CacheMisses:            st.cacheMisses.Load(),
		Flushes:                st.flushes.Load(),
		FlushedBytes:           st.flushedBytes.Load(),
		Compactions:            st.compactions.Load(),
		CompactedBytes:         st.compactedBytes.Load(),
		BlocksRead:             st.blocksRead.Load(),
		FilterNegatives:        st.filterNegatives.Load(),
		UserBytes:              st.userBytes.Load(),
		CompactionBytesWritten: st.compactionBytesWritten.Load(),
		StallNanos:             st.stallNanos.Load(),
		StalledWrites:          st.stalledWrites.Load(),
		CompactionQueueDepth:   st.compactionQueued.Load(),
	}
	if s.UserBytes > 0 {
		s.WriteAmplification = float64(s.FlushedBytes+s.CompactionBytesWritten) / float64(s.UserBytes)
	}
	return s
}

// Store is the LSM engine: one memstore plus a stack of immutable store
// files, newest first, fronted by a block cache. A Store backs exactly
// one Region in the simulated HBase.
//
// Concurrency model: mu is a reader/writer lock over the engine
// structure (memstore pointer and contents, file stack, seq, closed).
// Get takes the read lock, so any number of readers proceed in parallel;
// Put, Delete, Flush, the compaction splice and Close take the write
// lock, which also makes them the only memstore mutators. Scan takes the
// read lock only long enough to snapshot the memstore pointer and the file
// stack, then iterates lock-free: the file stack is replaced (never
// mutated) by flushes and compactions, store files are immutable once
// built, and the memstore skiplist publishes nodes with atomic pointers,
// so a reader never observes a half-linked node even while the single
// writer (under the write lock) keeps inserting. The shared BlockCache
// is internally locked and engine counters are atomics, so the read path
// touches no unprotected shared state.
//
// Durability: a mutation is buffered into the WAL and applied to the
// memstore under the write lock, but the caller is acknowledged only
// after the log record is fsynced — the wait happens outside the lock,
// so concurrent writers batch into one fsync (group commit).
// A crash can therefore lose only writes that were never acknowledged
// (readers may have glimpsed them, the same window HBase exposes).
type Store struct {
	mu      sync.RWMutex
	cfg     Config
	mem     *Memstore
	files   []*StoreFile // newest first
	cache   *BlockCache
	backend StorageBackend
	stats   storeStats
	seq     uint64 // logical clock for timestamps; mutated under mu (write)
	sealed  bool
	closed  bool

	// Retired-file reclamation: compaction may retire files while
	// lock-free scans still iterate them, so backend removal (which
	// closes the reader and unlinks the file) is deferred until no scan
	// is in flight. activeScans counts lock-free iterations; retired
	// holds file IDs awaiting removal. A scan that started after the
	// retirement snapshotted the new stack and never touches retired
	// files, so "no active scans" is a safe drain condition.
	activeScans atomic.Int64
	retiredMu   sync.Mutex
	retired     []uint64

	// Background compaction state (see compaction.go). compactMu
	// serializes CompactFiles calls so at most one merge is in flight
	// per store; compactionWanted latches "a flush crossed the soft
	// threshold" under the write lock for the trigger fired after it is
	// released; stallMu+stallGate park writers at the hard file-count
	// ceiling until a compaction shrinks the stack.
	compactMu        sync.Mutex
	compactionWanted atomic.Bool
	stallMu          sync.Mutex
	stallGate        chan struct{}

	// wiring is the store's attribution plumbing — which scheduler
	// services it, which I/O budget its bytes charge, where writers
	// stall. It starts as the Config values but is swappable at runtime
	// (SetCompaction) because a region move re-homes a live store onto
	// another server's compactor pool; an atomic pointer keeps the
	// lock-free readers (maybeStall, maybeTriggerCompaction, phase-2
	// compaction I/O) racing a rewire safe.
	wiring atomic.Pointer[compactionWiring]

	// File-stack change notification (Config.OnFilesChanged): flushes
	// and compaction splices latch filesDirty under the write lock; the
	// mutation paths fire the hook once outside every lock, exactly like
	// the compaction trigger. The hook itself is an atomic pointer so a
	// region move can swap it (SetFilesChanged) without racing a flush.
	onFilesChanged atomic.Pointer[func()]
	filesDirty     atomic.Bool

	// flushHist is the lock-free distribution of memstore-flush
	// durations (met/internal/obs); the telemetry plane merges it
	// across a server's regions.
	flushHist obs.Histogram
}

// compactionWiring bundles the rewirable background-compaction hooks.
type compactionWiring struct {
	trigger CompactionTrigger
	budget  IOBudget
	hardMax int
}

// NewStore creates an empty in-memory store with the given configuration.
// Config.OpenBackend is ignored; durable stores are created with
// OpenStore, which can also report recovery errors.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	cache := cfg.Cache
	if cache == nil {
		cache = NewBlockCache(cfg.BlockCacheBytes)
	}
	s := &Store{
		cfg:   cfg,
		mem:   NewMemstore(cfg.Seed),
		cache: cache,
	}
	s.wiring.Store(&compactionWiring{
		trigger: cfg.Compactor,
		budget:  cfg.CompactionBudget,
		hardMax: cfg.HardMaxStoreFiles,
	})
	if cfg.OnFilesChanged != nil {
		fn := cfg.OnFilesChanged
		s.onFilesChanged.Store(&fn)
	}
	return s
}

// OpenStore creates a store and, when Config.OpenBackend is set, opens
// its durable backend: persisted files are loaded, the WAL is replayed
// into the memstore (recovery), and the logical clock resumes past every
// recovered timestamp, so a reopened store acknowledges no timestamp
// twice. Recovered() reports how many WAL entries were replayed.
func OpenStore(cfg Config) (*Store, error) {
	s := NewStore(cfg)
	if cfg.OpenBackend == nil {
		return s, nil
	}
	backend, err := cfg.OpenBackend()
	if err != nil {
		return nil, fmt.Errorf("kv: open backend: %w", err)
	}
	files, err := backend.Load(s.cfg.BlockBytes)
	if err != nil {
		backend.Close() //lint:allow syncerr best-effort cleanup of a failed open; the load error is the one to surface
		return nil, fmt.Errorf("kv: load files: %w", err)
	}
	// Newest first; durable file IDs are minted in increasing order.
	sort.Slice(files, func(i, j int) bool { return files[i].ID() > files[j].ID() })
	s.backend = backend
	s.files = files
	for _, f := range files {
		bumpFileID(f.ID())
		if f.MaxTimestamp() > s.seq {
			s.seq = f.MaxTimestamp()
		}
	}
	if s.cfg.WAL == nil {
		s.cfg.WAL = backend.WAL()
	}
	if s.cfg.WAL != nil {
		entries, err := s.cfg.WAL.Replay()
		if err != nil {
			backend.Close() //lint:allow syncerr best-effort cleanup of a failed open; the replay error is the one to surface
			return nil, fmt.Errorf("kv: wal replay: %w", err)
		}
		// Records at or below the file stack's clock are already durable
		// in an SSTable. A private log never holds such records (flushes
		// truncate it), but a shared server-wide log reclaims segments
		// only when every region's flush mark passes them, so replay can
		// surface records an earlier flush already persisted.
		baseline := s.seq
		for _, e := range entries {
			if e.Timestamp <= baseline {
				continue
			}
			s.mem.Add(e)
			if e.Timestamp > s.seq {
				s.seq = e.Timestamp
			}
		}
	}
	// A recovered stack can already be over the compaction threshold
	// (crash during a backlog); ask for service now rather than letting
	// the first post-recovery write stall at the hard ceiling waiting
	// for a compaction nobody queued.
	if s.cfg.MaxStoreFiles > 0 && len(s.files) > s.cfg.MaxStoreFiles {
		s.compactionWanted.Store(true)
	}
	if err := s.maybeTriggerCompaction(); err != nil {
		s.Close()
		return nil, fmt.Errorf("kv: compact recovered files: %w", err)
	}
	return s, nil
}

// Config returns the store's configuration. Note that the background-
// compaction hooks (Compactor, CompactionBudget, HardMaxStoreFiles) may
// have been rewired since the store was opened — see SetCompaction —
// and the WAL may have been swapped (SwitchWAL).
func (s *Store) Config() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg
}

// WAL exposes the store's write-ahead log (nil for stores that do not
// log). Embedders that re-home a store use it to swap log-level
// accounting hooks alongside SetCompaction.
func (s *Store) WAL() WAL {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.WAL
}

// SwitchWAL re-homes the store's logging onto a different write-ahead
// log — the engine half of moving a region between servers when each
// server owns one shared log. The memstore is flushed first (under the
// write lock), so every record the old log held for this store becomes
// durable in an SSTable and is truncated away; from the next mutation
// on, records land in w. The old log is not closed — it belongs to its
// server. A failed flush leaves the store on its old log; a store
// without a compaction scheduler may also report the compaction that
// flush asked for, with the switch already in effect.
func (s *Store) SwitchWAL(w WAL) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("kv: switch wal flush: %w", err)
	}
	s.cfg.WAL = w
	s.mu.Unlock()
	if err := s.afterFlush(nil); err != nil {
		return fmt.Errorf("kv: switch wal: %w", err)
	}
	return nil
}

// SetCompaction rewires the store's background-compaction plumbing to a
// new scheduler, I/O budget and hard file ceiling — the engine half of
// re-homing a live store onto a different server (a region move): from
// the next flush on, compaction requests go to trigger, compaction and
// flush bytes charge budget, and writers stall against hardMax.
// hardMax is normalized exactly like Config.HardMaxStoreFiles (0 =
// 3×MaxStoreFiles, negative disables); with a nil trigger the store
// serves its own compactions (see Config.Compactor). The swap is
// atomic: a concurrent writer observes either the old wiring or the
// new, never a mix.
func (s *Store) SetCompaction(trigger CompactionTrigger, budget IOBudget, hardMax int) {
	if s.cfg.MaxStoreFiles < 0 {
		hardMax = -1
	} else if hardMax == 0 {
		hardMax = 3 * s.cfg.MaxStoreFiles
	} else if hardMax > 0 && hardMax <= s.cfg.MaxStoreFiles {
		hardMax = s.cfg.MaxStoreFiles + 1
	}
	s.wiring.Store(&compactionWiring{trigger: trigger, budget: budget, hardMax: hardMax})
	// A writer parked on the old server's stall gate must not wait for a
	// pool that no longer services this store; wake it to re-evaluate
	// against the new wiring.
	s.releaseStall()
}

// SetFilesChanged rewires the store's file-stack change hook (see
// Config.OnFilesChanged) — the engine half of re-homing a live store's
// replication onto a different server. nil disables notification. The
// swap is atomic; a flush racing it fires either the old hook or the
// new, never a torn pointer.
func (s *Store) SetFilesChanged(fn func()) {
	if fn == nil {
		s.onFilesChanged.Store(nil)
		return
	}
	s.onFilesChanged.Store(&fn)
}

// notifyFilesChanged fires the files-changed hook if a flush or
// compaction latched a stack change since the last call. Called outside
// all engine locks by afterFlush and CompactFiles.
func (s *Store) notifyFilesChanged() {
	fn := s.onFilesChanged.Load()
	if fn == nil {
		return
	}
	if !s.filesDirty.CompareAndSwap(true, false) {
		return
	}
	(*fn)()
}

// MaxTimestamp returns the store's logical clock: the timestamp of the
// newest mutation ever applied (acknowledged or in flight). Because
// timestamps are minted densely — one per mutation — the difference
// between two stores' clocks counts the mutations one has that the
// other lacks; failover uses that to report exactly how many
// acknowledged writes a lost server's replica did not cover.
func (s *Store) MaxTimestamp() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// write is the one mutation path — Put, Delete, ImportEntries and
// ApplyReplayed all end here. After passing the stall gate (file-count
// backpressure, outside the lock) it takes the write lock and, entry by
// entry, stamps the next timestamp — or, with keepTS, keeps the entry's
// own and skips entries at or below the clock, which are already present
// — buffers the entry into the WAL and applies it to the memstore; then
// it flushes if the memstore is over its threshold. Outside the lock it
// settles what the flush owes (afterFlush) and waits for the last
// record's commit, which covers the whole batch, before acknowledging.
//
// entries is the caller's scratch: write stamps it in place and the
// memstore keeps the Value slices. applied counts the entries logged and
// applied; on a mid-batch append failure the earlier ones stay applied
// (logged, never acknowledged) and the clock rests on the last of them,
// so timestamps stay dense — no timestamp names a record the log never
// saw.
func (s *Store) write(entries []Entry, keepTS bool, counter *atomic.Int64, tr *obs.Trace) (int, error) {
	s.maybeStall()
	s.mu.Lock()
	if s.closed || s.sealed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	var commit func() error
	applied := 0
	for i := range entries {
		e := &entries[i]
		if !keepTS {
			e.Timestamp = s.seq + 1
		} else if e.Timestamp <= s.seq {
			continue
		}
		if s.cfg.WAL != nil {
			st := tr.StartSpan()
			c, err := s.cfg.WAL.AppendBuffered(*e)
			if err != nil {
				s.mu.Unlock()
				return applied, fmt.Errorf("kv: wal append: %w", err)
			}
			commit = c
			tr.EndSpan("wal-append", st)
		}
		s.seq = e.Timestamp
		st := tr.StartSpan()
		s.mem.Add(*e)
		tr.EndSpan("memstore", st)
		if counter != nil {
			counter.Add(1)
		}
		s.stats.userBytes.Add(int64(e.Size()))
		applied++
	}
	var flushErr error
	if s.mem.Bytes() >= s.cfg.MemstoreFlushBytes {
		st := tr.StartSpan()
		flushErr = s.flushLocked()
		tr.EndSpan("flush", st)
	}
	s.mu.Unlock()
	flushErr = s.afterFlush(flushErr)
	if commit != nil {
		st := tr.StartSpan()
		err := commit()
		tr.EndSpan("wal-sync", st)
		if err != nil {
			return applied, fmt.Errorf("kv: wal sync: %w", err)
		}
	}
	if flushErr != nil {
		return applied, fmt.Errorf("kv: flush: %w", flushErr)
	}
	return applied, nil
}

// afterFlush settles, outside every engine lock, what a possible flush
// left latched: the compaction request (fired at the scheduler, or
// served right here by a store without one) and the files-changed hook.
// It returns flushErr, or else the self-service compaction's error, for
// the caller to report as the flush's.
func (s *Store) afterFlush(flushErr error) error {
	if err := s.maybeTriggerCompaction(); flushErr == nil {
		flushErr = err
	}
	s.notifyFilesChanged()
	return flushErr
}

// Put writes a value. Writes are atomic and immediately visible to
// subsequent reads, matching HBase's contract; on a logging store the
// call returns only once the write is durable.
func (s *Store) Put(key string, value []byte) error {
	return s.PutTraced(key, value, nil)
}

// PutTraced is Put with a trace context: the WAL append, memstore
// apply, threshold flush and group-commit wait each record a span. A
// nil trace is free.
func (s *Store) PutTraced(key string, value []byte, tr *obs.Trace) error {
	one := [1]Entry{{Key: key, Value: append([]byte(nil), value...)}}
	_, err := s.write(one[:], false, &s.stats.puts, tr)
	return err
}

// Delete writes a tombstone for key.
func (s *Store) Delete(key string) error {
	return s.DeleteTraced(key, nil)
}

// DeleteTraced is Delete with a trace context.
func (s *Store) DeleteTraced(key string, tr *obs.Trace) error {
	one := [1]Entry{{Key: key, Tombstone: true}}
	_, err := s.write(one[:], false, &s.stats.deletes, tr)
	return err
}

// copyBatch deep-copies entries into the scratch slice write consumes.
func copyBatch(entries []Entry) []Entry {
	batch := make([]Entry, len(entries))
	for i, e := range entries {
		e.Value = append([]byte(nil), e.Value...)
		batch[i] = e
	}
	return batch
}

// ImportEntries bulk-loads entries as fresh writes — the migration path
// (region splits, store reopens) uses it instead of per-entry Puts so a
// durable store pays one group-commit fsync for the whole batch instead
// of one per entry. Entries are re-timestamped in order, so they shadow
// nothing newer than themselves.
func (s *Store) ImportEntries(entries []Entry) error {
	_, err := s.write(copyBatch(entries), false, &s.stats.puts, nil)
	return err
}

// ApplyReplayed applies recovered records from another store's log —
// the replicated WAL tail a failover replays over replica SSTables.
// Unlike ImportEntries it preserves the original timestamps (the
// records were minted by the dead store's clock, and keeping them dense
// keeps failover loss accounting exact); records at or below this
// store's clock are already present and are skipped. Entries must be in
// ascending timestamp order. It returns how many records were applied,
// also when a later record's append failed.
func (s *Store) ApplyReplayed(entries []Entry) (int, error) {
	return s.write(copyBatch(entries), true, nil, nil)
}

// Get returns the newest live value for key, or ErrNotFound. Gets run
// concurrently with each other and with Scans; they only exclude
// writers.
func (s *Store) Get(key string) ([]byte, error) {
	return s.GetTraced(key, nil)
}

// GetTraced is Get with a trace context: the memstore probe and every
// consulted file (bloom negative, block-cache hit or SSTable read)
// record spans. A nil trace is free — no clock reads, no allocation.
func (s *Store) GetTraced(key string, tr *obs.Trace) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.stats.gets.Add(1)
	st := tr.StartSpan()
	best, ok := s.mem.Get(key)
	tr.EndSpan("memstore", st)
	for _, f := range s.files {
		if ok && best.Timestamp >= f.MaxTimestamp() {
			break // nothing newer can exist in older files
		}
		e, found, err := f.get(key, s.cache, &s.stats, tr)
		if err != nil {
			return nil, fmt.Errorf("kv: read file %d: %w", f.ID(), err)
		}
		if found {
			if !ok || e.supersedes(best) {
				best, ok = e, true
			}
		}
	}
	if !ok || best.Tombstone {
		return nil, ErrNotFound
	}
	return append([]byte(nil), best.Value...), nil
}

// Scan returns up to limit live entries with start <= key < end, in key
// order. An empty end means "to the end of the store"; limit < 0 means
// unlimited. The read lock is held only to snapshot the memstore and the
// immutable file stack; the iteration itself runs lock-free, so long
// scans never stall writers. The snapshot is consistent at the moment it
// is taken; entries written afterwards may or may not be observed, which
// matches HBase's scanner semantics.
func (s *Store) Scan(start, end string, limit int) ([]Entry, error) {
	return s.ScanTraced(start, end, limit, nil)
}

// ScanTraced is Scan with a trace context: the snapshot acquisition and
// the merge iteration record spans. A nil trace is free.
func (s *Store) ScanTraced(start, end string, limit int, tr *obs.Trace) ([]Entry, error) {
	st := tr.StartSpan()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	mem := s.mem
	files := s.files
	s.activeScans.Add(1)
	s.mu.RUnlock()
	defer func() {
		if s.activeScans.Add(-1) == 0 {
			s.drainRetired(false)
		}
	}()
	tr.EndSpan("snapshot", st)

	s.stats.scans.Add(1)
	st = tr.StartSpan()
	sources := make([]Iterator, 0, len(files)+1)
	sources = append(sources, mem.IteratorFrom(start))
	for _, f := range files {
		sources = append(sources, f.iteratorFrom(start, s.cache, &s.stats))
	}
	it := newLimitIterator(newBoundIterator(newDedupIterator(newMergeIterator(sources), true), end), limit)
	var out []Entry
	scanned := int64(0)
	for it.Next() {
		e := it.Entry()
		e.Value = append([]byte(nil), e.Value...)
		out = append(out, e)
		scanned++
	}
	tr.EndSpan("iterate", st)
	s.stats.scannedEntries.Add(scanned)
	for _, src := range sources {
		if err := iterErr(src); err != nil {
			return nil, fmt.Errorf("kv: scan: %w", err)
		}
	}
	return out, nil
}

// FlushLatency returns the distribution of this store's memstore-flush
// durations.
func (s *Store) FlushLatency() obs.Snapshot { return s.flushHist.Snapshot() }

// Flush forces the memstore to a new store file.
func (s *Store) Flush() error {
	s.mu.Lock()
	err := s.flushLocked()
	s.mu.Unlock()
	return s.afterFlush(err)
}

func (s *Store) flushLocked() error {
	if s.mem.Len() == 0 {
		return nil
	}
	flushStart := time.Now()
	entries := make([]Entry, 0, s.mem.Len())
	it := s.mem.Iterator()
	for it.Next() {
		entries = append(entries, it.Entry())
	}
	f, err := s.createFile(nextFileID(), entries)
	if err != nil {
		// Keep the memstore: the data stays readable and logged; the
		// next flush retries.
		return err
	}
	maxTS := s.mem.MaxTimestamp()
	s.files = append([]*StoreFile{f}, s.files...)
	s.filesDirty.Store(true)
	s.stats.flushes.Add(1)
	s.stats.flushedBytes.Add(int64(f.Bytes()))
	s.flushHist.Since(flushStart)
	w := s.wiring.Load()
	if w.budget != nil {
		// Flush I/O is foreground: it is accounted against the shared
		// budget (so compaction yields to it) but never blocked.
		w.budget.NoteForeground(f.Bytes())
	}
	s.mem = NewMemstore(s.cfg.Seed + f.ID())
	if s.cfg.WAL != nil {
		s.cfg.WAL.Truncate(maxTS)
	}
	if s.cfg.MaxStoreFiles > 0 && len(s.files) > s.cfg.MaxStoreFiles {
		// Latch the request; afterFlush serves it once the caller has
		// released the write lock.
		s.compactionWanted.Store(true)
	}
	return nil
}

// createFile persists sorted entries through the backend (or in memory).
func (s *Store) createFile(id uint64, entries []Entry) (*StoreFile, error) {
	return s.createFileWithFloor(id, entries, 0)
}

// createFileWithFloor is createFile with the file's recorded max
// timestamp raised to at least maxTSFloor — compactions pass the
// maximum of their inputs so dropping a newest-version entry cannot
// regress the output's clock (see TimestampFloorCreator). Backends
// without the extension get an in-memory clamp, which preserves the
// clock for the life of this process.
func (s *Store) createFileWithFloor(id uint64, entries []Entry, maxTSFloor uint64) (*StoreFile, error) {
	var f *StoreFile
	var err error
	if s.backend != nil {
		if fc, ok := s.backend.(TimestampFloorCreator); ok && maxTSFloor > 0 {
			f, err = fc.CreateWithMaxTS(id, entries, s.cfg.BlockBytes, maxTSFloor)
		} else {
			f, err = s.backend.Create(id, entries, s.cfg.BlockBytes)
		}
	} else {
		f = BuildStoreFile(id, entries, s.cfg.BlockBytes)
	}
	if err != nil {
		return nil, err
	}
	if f.meta.MaxTS < maxTSFloor {
		f.meta.MaxTS = maxTSFloor
	}
	return f, nil
}

// Compact merges every store file (and nothing from the memstore) into a
// single file. With major=true, tombstones and shadowed versions are
// dropped — HBase's "major compact", the operation MeT issues to restore
// data locality after moving regions. The merge I/O runs outside the
// store locks (CompactFiles), so reads and writes proceed throughout; a
// flush that lands mid-compaction simply stays as its own file until the
// next compaction.
func (s *Store) Compact(major bool) error {
	_, err := s.CompactFiles(CompactionSelection{Major: major})
	return err
}

// drainRetired removes retired files through the backend — closing their
// readers and unlinking them — once no lock-free scan can still be
// reading them. force skips the active-scan check (Close: racing scans
// already fail with ErrClosed once the backend shuts).
func (s *Store) drainRetired(force bool) {
	if s.backend == nil {
		return
	}
	if !force && s.activeScans.Load() != 0 {
		return
	}
	s.retiredMu.Lock()
	ids := s.retired
	s.retired = nil
	s.retiredMu.Unlock()
	// A scan starting now snapshots the current stack, which no longer
	// references these files, so removing them cannot affect it.
	for _, id := range ids {
		_ = s.backend.Remove(id)
	}
}

// Stats returns a snapshot of the engine counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	memBytes := int64(s.mem.Bytes())
	s.mu.RUnlock()
	st := s.stats.snapshot()
	st.MemstoreCurrent = memBytes
	return st
}

// DataBytes returns the approximate total bytes held (memstore + files).
func (s *Store) DataBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.mem.Bytes()
	for _, f := range s.files {
		total += f.Bytes()
	}
	return total
}

// NumFiles returns the current number of store files.
func (s *Store) NumFiles() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// FileInfo describes one immutable store file, for embedders that mirror
// the engine's file stack into an external system (the HDFS layer).
type FileInfo struct {
	ID    uint64
	Bytes int64
}

// FileInfos snapshots the current immutable file stack, newest first.
func (s *Store) FileInfos() []FileInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FileInfo, len(s.files))
	for i, f := range s.files {
		out[i] = FileInfo{ID: f.ID(), Bytes: int64(f.Bytes())}
	}
	return out
}

// ExportedFile names one immutable store file by its on-disk path, for
// byte-level shipping: replication copies it to follower servers,
// snapshots archive it. The file at Path is immutable while it remains
// in the stack; a compaction may unlink it after the snapshot is taken,
// in which case an opener sees ENOENT and the file's contents are
// guaranteed to live on in a newer (higher-ID) exported file.
type ExportedFile struct {
	ID    uint64
	Bytes int64
	MaxTS uint64
	Path  string
}

// FileExporter is an optional StorageBackend extension for backends
// whose files are real on-disk artifacts that can be copied byte for
// byte (the durable backend). FilePath returns the path file id lives
// at; it must be stable for the life of the file.
type FileExporter interface {
	FilePath(id uint64) string
}

// ExportFiles snapshots the current file stack as on-disk paths, newest
// first. ok is false when the store's backend cannot export files (the
// in-memory backend) — there is nothing to ship, and callers should
// treat the store as replication-exempt rather than empty.
func (s *Store) ExportFiles() ([]ExportedFile, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	exp, ok := s.backend.(FileExporter)
	if !ok {
		return nil, false
	}
	out := make([]ExportedFile, len(s.files))
	for i, f := range s.files {
		out[i] = ExportedFile{
			ID:    f.ID(),
			Bytes: int64(f.Bytes()),
			MaxTS: f.MaxTimestamp(),
			Path:  exp.FilePath(f.ID()),
		}
	}
	return out, true
}

// Seal stops accepting mutations — Put and Delete fail with ErrClosed —
// while reads keep being served. Region migrations (reopen on restart,
// splits) seal the source store before copying it so that every write
// ever acknowledged is either in the copy or never acknowledged: a Put
// that returned nil completed under the write lock before Seal acquired
// it, and is therefore visible to the migration's Scan.
func (s *Store) Seal() {
	s.mu.Lock()
	s.sealed = true
	s.mu.Unlock()
	// A stalled writer must observe the seal and fail rather than wait
	// out its full stall timeout against a store being migrated.
	s.releaseStall()
}

// Unseal re-enables mutations on a sealed store; an aborted migration
// uses it to hand the store back to the serving path.
func (s *Store) Unseal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = false
}

// Close marks the store closed and releases its backend (open file
// handles, WAL); subsequent operations fail with ErrClosed. A durable
// store must be closed before its directory is reopened.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.backend != nil {
		s.drainRetired(true)
		//lint:allow syncerr the close error is unreportable from a void Close; acknowledged data was fsynced by its own commit round
		_ = s.backend.Close() //lint:allow locksafe exclusive shutdown: closed=true fences every other path, so nothing can stall behind the final release
	}
	s.mu.Unlock()
	s.releaseStall()
}
