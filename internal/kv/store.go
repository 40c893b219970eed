package kv

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"met/internal/obs"
)

// fileIDCounter mints store-file IDs. Durable backends persist IDs
// inside file names, and a store orders its files by them (newest
// first); OpenStore bumps the counter past every ID it loads so new
// files never collide with recovered ones. IDs are not unique across a
// server's stores: a region adopted from a replica keeps the IDs
// another process minted. The block cache therefore keys blocks by the
// per-open cacheIDs (blockfile.go), never by these.
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

	// StallTimeout bounds a single write's stall at its host's
	// HardMaxStoreFiles; past it the write proceeds and the file count
	// grows unbounded (reported via Stats.StallNanos either way). 0
	// defaults to 10s.
	StallTimeout time.Duration
	// Host is where the store starts out (see Host); SetHost moves it.
	// The zero Host compacts on the store's own writers and counts into
	// a private Counters.
	Host Host
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
	if c.StallTimeout == 0 {
		c.StallTimeout = 10 * time.Second
	}
	return c
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
	// ceiling until a compaction shrinks the stack, stalls holding each
	// one's start on the current host. compactionQueued is the
	// Stats.CompactionQueueDepth gauge.
	compactMu        sync.Mutex
	compactionWanted atomic.Bool
	stallMu          sync.Mutex
	stallGate        chan struct{}
	stalls           []*int64
	compactionQueued atomic.Int64

	// host is where the store runs (see Host). An atomic pointer keeps
	// the lock-free readers — the serving path's counters, maybeStall,
	// maybeTriggerCompaction, phase-2 compaction I/O — racing a SetHost
	// safe. Flushes and compaction splices latch filesDirty under the
	// write lock; the mutation paths fire host.OnFilesChanged once
	// outside every lock, exactly like the compaction trigger.
	host       atomic.Pointer[Host]
	filesDirty atomic.Bool
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
	s.host.Store(cfg.host(cfg.Host))
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

// Config returns the store's configuration, with its current Host
// (see SetHost) and WAL (see SwitchWAL).
func (s *Store) Config() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cfg := s.cfg
	cfg.Host = *s.host.Load()
	return cfg
}

// WAL exposes the store's write-ahead log (nil for stores that do not
// log). Embedders that re-home a store use it to decide whether the
// store must SwitchWAL.
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

// notifyFilesChanged fires the host's files-changed hook if a flush or
// compaction latched a stack change since the last call. Called outside
// all engine locks by afterFlush and CompactFiles.
func (s *Store) notifyFilesChanged() {
	fn := s.host.Load().OnFilesChanged
	if fn == nil {
		return
	}
	if !s.filesDirty.CompareAndSwap(true, false) {
		return
	}
	fn()
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
func (s *Store) write(entries []Entry, keepTS bool, count func(*Counters) *atomic.Int64, tr *obs.Trace) (int, error) {
	s.maybeStall()
	s.mu.Lock()
	if s.closed || s.sealed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	c := s.host.Load().Counters
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
		if count != nil {
			count(c).Add(1)
		}
		c.userBytes.Add(int64(e.Size()))
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
	_, err := s.write(one[:], false, puts, tr)
	return err
}

// Delete writes a tombstone for key.
func (s *Store) Delete(key string) error {
	return s.DeleteTraced(key, nil)
}

// DeleteTraced is Delete with a trace context.
func (s *Store) DeleteTraced(key string, tr *obs.Trace) error {
	one := [1]Entry{{Key: key, Tombstone: true}}
	_, err := s.write(one[:], false, deletes, tr)
	return err
}

// puts and deletes pick the counter a write bumps per entry.
func puts(c *Counters) *atomic.Int64    { return &c.puts }
func deletes(c *Counters) *atomic.Int64 { return &c.deletes }

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
	_, err := s.write(copyBatch(entries), false, puts, nil)
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
// writers. The value is the caller's copy, made while the Get still
// pins the block it came from, so the block may be recycled the moment
// Get returns.
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
	c := s.host.Load().Counters
	c.gets.Add(1)
	st := tr.StartSpan()
	best, ok := s.mem.Get(key)
	tr.EndSpan("memstore", st)
	// held pins best's block while best came from a file: its Value
	// aliases the block until the copy below.
	var held *Block
	for _, f := range s.files {
		if ok && best.Timestamp >= f.MaxTimestamp() {
			break // nothing newer can exist in older files
		}
		e, b, found, err := f.get(key, s.cache, c, tr)
		if err != nil {
			held.Release()
			return nil, fmt.Errorf("kv: read file %d: %w", f.ID(), err)
		}
		if !found {
			continue
		}
		if ok && !e.supersedes(best) {
			b.Release()
			continue
		}
		held.Release()
		best, held, ok = e, b, true
	}
	live := ok && !best.Tombstone
	var v []byte
	if live {
		v = append([]byte(nil), best.Value...)
	}
	held.Release() // only after the copy: the last pin may recycle the block
	if !live {
		return nil, ErrNotFound
	}
	return v, nil
}

// Scan returns up to limit live entries with start <= key < end, in key
// order, as the caller's copies (see ScanFunc).
func (s *Store) Scan(start, end string, limit int) ([]Entry, error) {
	return Collect(limit, func(fn func(Entry) bool) error { return s.ScanFunc(start, end, limit, nil, fn) })
}

// Collect runs a visiting scan of up to limit rows (< 0: unbounded;
// up to 128 are sized up front) and returns the rows it visits, each
// Value copied out while the visit still holds its block. The copies
// are carved from chunks that double from 1 KiB to 16 KiB and are never
// moved, so the values cost one allocation per chunk rather than one
// per row; a held value keeps its chunk alive. Each copy's capacity is
// clipped, so appending to one copies it.
func Collect(limit int, scan func(fn func(Entry) bool) error) ([]Entry, error) {
	var out []Entry
	if limit >= 0 {
		out = make([]Entry, 0, min(limit, 128))
	}
	var chunk []byte
	err := scan(func(e Entry) bool {
		if n := len(e.Value); n > cap(chunk)-len(chunk) {
			chunk = make([]byte, 0, max(n, min(2*cap(chunk), 16<<10), 1<<10))
		}
		at := len(chunk)
		chunk = append(chunk, e.Value...)
		e.Value = chunk[at:len(chunk):len(chunk)]
		out = append(out, e)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanFunc calls fn on up to limit live entries with start <= key < end,
// in key order, until fn returns false. An empty end means "to the end
// of the store"; limit < 0 means unlimited. The read lock is held only
// to snapshot the memstore and the immutable file stack; the iteration
// itself runs lock-free, so long scans never stall writers. The
// snapshot is consistent at the moment it is taken; entries written
// afterwards may or may not be observed, which matches HBase's scanner
// semantics.
//
// An entry's Value aliases the memstore or a block and is valid only
// during fn, which must not write it or keep it: ScanFunc releases
// every block its iterators loaded when it returns, on every path, and
// the last pin's release lets the next block-cache miss read over the
// payload (see Block). A source that fails to load a block ends the
// scan with an error, possibly after fn has seen some rows. A non-nil
// trace records a span for the snapshot and one for the visit.
func (s *Store) ScanFunc(start, end string, limit int, tr *obs.Trace, fn func(Entry) bool) error {
	st := tr.StartSpan()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	mem := s.mem
	files := s.files
	s.activeScans.Add(1)
	s.mu.RUnlock()
	pins := make([]*Block, 0, 2*len(files))
	defer func() {
		for _, b := range pins {
			b.Release()
		}
		if s.activeScans.Add(-1) == 0 {
			s.drainRetired(false)
		}
	}()
	tr.EndSpan("snapshot", st)

	c := s.host.Load().Counters
	c.scans.Add(1)
	st = tr.StartSpan()
	sources := make([]Iterator, 0, len(files)+1)
	sources = append(sources, mem.IteratorFrom(start))
	for _, f := range files {
		sources = append(sources, f.iteratorFrom(start, s.cache, c, &pins))
	}
	it := newDedupIterator(newMergeIterator(sources), true)
	visited := int64(0)
	for (limit < 0 || visited < int64(limit)) && it.Next() {
		e := it.Entry()
		if end != "" && e.Key >= end {
			break
		}
		visited++
		if !fn(e) {
			break
		}
	}
	tr.EndSpan("iterate", st)
	c.scannedEntries.Add(visited)
	for _, src := range sources {
		if err := iterErr(src); err != nil {
			return fmt.Errorf("kv: scan: %w", err)
		}
	}
	return nil
}

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
	f, err := s.createFileWithFloor(nextFileID(), entries, 0)
	if err != nil {
		// Keep the memstore: the data stays readable and logged; the
		// next flush retries.
		return err
	}
	maxTS := s.mem.MaxTimestamp()
	s.files = append([]*StoreFile{f}, s.files...)
	s.filesDirty.Store(true)
	h := s.host.Load()
	h.Counters.flushes.Add(1)
	h.Counters.flushedBytes.Add(int64(f.Bytes()))
	h.Counters.Flush.Since(flushStart)
	if h.Budget != nil {
		// Flush I/O is foreground: it is accounted against the shared
		// budget (so compaction yields to it) but never blocked.
		h.Budget.NoteForeground(f.Bytes())
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

// createFileWithFloor persists sorted entries through the backend (or
// in memory), the file's recorded max timestamp raised to at least
// maxTSFloor — compactions pass the maximum of their inputs so dropping
// a newest-version entry cannot regress the output's clock (see
// TimestampFloorCreator). Backends without the extension get an
// in-memory clamp, which preserves the clock for the life of this
// process.
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

// Stats returns the store's gauges over its host's counters: a store
// sharing its host's Counters reports what every store there did.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	memBytes := int64(s.mem.Bytes())
	s.mu.RUnlock()
	st := s.host.Load().Counters.Snapshot()
	st.MemstoreCurrent = memBytes
	st.CompactionQueueDepth = s.compactionQueued.Load()
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
// byte-level shipping: replication copies it to follower servers. The
// file at Path is immutable while it remains in the stack; a compaction
// may unlink it after the stack is exported, in which case an opener
// sees ENOENT and the file's contents are guaranteed to live on in a
// newer (higher-ID) exported file.
type ExportedFile struct {
	ID   uint64
	Path string
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
		out[i] = ExportedFile{ID: f.ID(), Path: exp.FilePath(f.ID())}
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
// store must be closed before its directory is reopened. Close waits
// for an in-flight merge (CompactFiles), which sees the store closed
// and discards its output, so that nothing of this store writes to or
// removes from the directory once Close has returned.
func (s *Store) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	s.releaseStall()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if already || s.backend == nil {
		return
	}
	s.mu.Lock()
	s.drainRetired(true)
	//lint:allow syncerr the close error is unreportable from a void Close; acknowledged data was fsynced by its own commit round
	_ = s.backend.Close() //lint:allow locksafe exclusive shutdown: closed=true fences every other path, so nothing can stall behind the final release
	s.mu.Unlock()
}
