package hbase

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"met/internal/kv"
	"met/internal/metrics"
)

// Region is one horizontal partition of an HTable: the half-open key
// range [StartKey, EndKey). It owns a kv.Store holding its data and the
// request counters the Monitor samples.
//
// A Region is safe for concurrent use. Its identity (name, table, key
// range) is immutable; request counters are atomics so the serving hot
// path never locks; the backing store is an atomic pointer because a
// server restart swaps it (readers racing a swap see either the old
// store — whose Close makes it return kv.ErrClosed — or the new one,
// never a torn pointer); mu guards the HDFS mirror bookkeeping.
type Region struct {
	mu sync.Mutex

	name     string
	table    string
	startKey string
	endKey   string // empty = unbounded

	store    atomic.Pointer[kv.Store]
	requests metrics.AtomicCounts
	// lat holds the region-level serving latency histograms, recorded
	// by the hosting server alongside its own (see telemetry.go). Like
	// the request counters they are cumulative over the region's life,
	// surviving store swaps and moves.
	lat     opHists
	fileSeq int

	// HDFS mirror bookkeeping: which engine store files are reflected
	// in the namenode. The mirror maps engine file IDs to HDFS file
	// records and is reconciled against the store's real file stack
	// (kv.Store.FileInfos) at every sync point, so the namenode's view
	// is the engine's view — a flush racing a major compaction can no
	// longer double-count bytes, because adds and removes are computed
	// from one atomic snapshot of the stack.
	//
	// mirrorStore pins which store the IDs belong to: stats read from a
	// store just retired by a restart must not be applied to the fresh
	// store's bookkeeping. legacy holds HDFS files whose engine files no
	// longer exist in the current store (an in-memory reopen copies data
	// into a new store's memstore, so the bytes are real but no longer
	// file-backed); they keep degrading locality until a major
	// compaction purges them, exactly like post-move HFiles in HBase.
	mirrorStore *kv.Store
	mirror      map[uint64]mirrorFile
	legacy      map[string]int64

	// followers are the servers holding replica copies of this region's
	// SSTables (met/internal/replication). The master assigns them via
	// hdfs.Namenode placement, persists them in the region's catalog
	// table row, and re-picks when the set degenerates (the primary
	// moved onto a follower, or a follower left the cluster).
	followers []string
}

// mirrorFile is one engine file's HDFS reflection.
type mirrorFile struct {
	name  string
	bytes int64
}

// mirrorAdd is a pending namenode write computed by mirrorActions.
type mirrorAdd struct {
	name  string
	bytes int64
}

// newRegionNamed creates a region called name over a fresh store with
// the given engine config (derived from the hosting server's
// ServerConfig). With a durable config (OpenBackend set) the store
// recovers whatever its directory already holds. Splits mint daughter
// names distinct from the parent's (real HBase encodes a region id for
// the same reason).
func newRegionNamed(name, table, startKey, endKey string, storeCfg kv.Config) (*Region, error) {
	r := &Region{
		name:     name,
		table:    table,
		startKey: startKey,
		endKey:   endKey,
		mirror:   make(map[uint64]mirrorFile),
		legacy:   make(map[string]int64),
	}
	s, err := kv.OpenStore(storeCfg)
	if err != nil {
		return nil, fmt.Errorf("hbase: open region %s: %w", name, err)
	}
	r.store.Store(s)
	r.mirrorStore = s
	return r, nil
}

// Name returns the region identifier ("table,startKey").
func (r *Region) Name() string { return r.name }

// Table returns the owning table name.
func (r *Region) Table() string { return r.table }

// StartKey returns the inclusive lower bound of the region's range.
func (r *Region) StartKey() string { return r.startKey }

// EndKey returns the exclusive upper bound ("" = unbounded).
func (r *Region) EndKey() string { return r.endKey }

// Contains reports whether key falls in the region's range.
func (r *Region) Contains(key string) bool {
	if key < r.startKey {
		return false
	}
	return r.endKey == "" || key < r.endKey
}

// Store exposes the backing engine (tests and the server use it).
func (r *Region) Store() *kv.Store { return r.store.Load() }

// Followers returns the servers replicating this region's SSTables.
func (r *Region) Followers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.followers...)
}

// SetFollowers replaces the replica target set (master only; the change
// is persisted with the region's next table-row commit).
func (r *Region) SetFollowers(followers []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.followers = append([]string(nil), followers...)
}

// Requests returns the cumulative request counters.
func (r *Region) Requests() metrics.RequestCounts {
	return r.requests.Snapshot()
}

func (r *Region) countRead()  { r.requests.AddRead() }
func (r *Region) countWrite() { r.requests.AddWrite() }
func (r *Region) countScan()  { r.requests.AddScan() }

// DataBytes returns the approximate bytes held by the region.
func (r *Region) DataBytes() int64 { return int64(r.Store().DataBytes()) }

// Files returns the HDFS file names currently backing the region.
func (r *Region) Files() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.mirror)+len(r.legacy))
	for _, mf := range r.mirror {
		out = append(out, mf.name)
	}
	for name := range r.legacy {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// mirrorActions reconciles the HDFS mirror with store's current file
// stack, atomically deciding which namenode files to create and which to
// delete. Engine files not yet mirrored become adds; mirrored IDs the
// engine no longer has (compacted away) become removes. With purgeLegacy
// (major compaction — the reconciliation point) the legacy files are
// removed too. ok=false means store is not the store this bookkeeping
// tracks (it was retired by a concurrent restart) and nothing changed.
// At most one concurrent caller obtains each add/remove, so namenode
// operations are never duplicated.
func (r *Region) mirrorActions(store *kv.Store, purgeLegacy bool) (adds []mirrorAdd, removes []string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if store != r.mirrorStore {
		return nil, nil, false
	}
	infos := store.FileInfos()
	live := make(map[uint64]bool, len(infos))
	for _, fi := range infos {
		live[fi.ID] = true
		if _, mirrored := r.mirror[fi.ID]; mirrored {
			continue
		}
		r.fileSeq++
		mf := mirrorFile{name: fmt.Sprintf("%s/hfile-%d", r.name, r.fileSeq), bytes: fi.Bytes}
		if mf.bytes <= 0 {
			mf.bytes = 1
		}
		r.mirror[fi.ID] = mf
		adds = append(adds, mirrorAdd{name: mf.name, bytes: mf.bytes})
	}
	for id, mf := range r.mirror {
		if !live[id] {
			delete(r.mirror, id)
			removes = append(removes, mf.name)
		}
	}
	if purgeLegacy {
		for name := range r.legacy {
			removes = append(removes, name)
		}
		r.legacy = make(map[string]int64)
	}
	return adds, removes, true
}

// resetMirror re-pins the bookkeeping to store. When the engine file IDs
// survived the store swap (durable reopen: the same directory was
// reloaded, same IDs) the mirror carries over; otherwise (in-memory
// reopen: data was copied into a fresh memstore) the existing HDFS files
// become legacy — still in the namenode, still counted for locality,
// purged at the next major compaction.
func (r *Region) resetMirror(store *kv.Store, idsPreserved bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if store == r.mirrorStore {
		return
	}
	if !idsPreserved {
		for _, mf := range r.mirror {
			r.legacy[mf.name] = mf.bytes
		}
		r.mirror = make(map[uint64]mirrorFile)
	}
	r.mirrorStore = store
}

// reopen replaces the backing store (used on server restart with a new
// configuration, on the same backend: a restart never changes the data
// directory). With a durable config the old store is closed — its WAL
// and SSTables are released — and the new store recovers from the same
// directory, exactly the crash-recovery path but voluntary: a cold
// cache and the same data. Without durable backing, live entries are
// scan-copied into a store built with the new engine config. Either way
// the old store is sealed first, so an in-flight write either completed
// before the seal (durable: therefore fsynced or WAL-buffered and
// recovered; memory: captured by the copy) or fails with kv.ErrClosed
// without being acknowledged — no acknowledged write is ever lost.
func (r *Region) reopen(storeCfg kv.Config) error {
	old := r.Store()
	old.Seal()
	if storeCfg.OpenBackend != nil {
		// Recovery from the region's directory. The old
		// store must release its WAL and file handles before the new
		// one opens them.
		old.Close()
		ns, err := kv.OpenStore(storeCfg)
		if err != nil {
			// The directory is intact (Close is not destructive), so try
			// to restore service on the old configuration rather than
			// leaving the region wedged on a closed store while the
			// server reports healthy.
			if prev, perr := kv.OpenStore(old.Config()); perr == nil {
				r.store.Store(prev)
				r.resetMirror(prev, true)
			}
			return fmt.Errorf("hbase: reopen %s: %w", r.name, err)
		}
		r.store.Store(ns)
		r.resetMirror(ns, true)
		return nil
	}
	entries, err := old.Scan(r.startKey, r.endKey, -1)
	if err != nil {
		old.Unseal()
		return fmt.Errorf("hbase: reopen %s: %w", r.name, err)
	}
	ns, err := kv.OpenStore(storeCfg)
	if err != nil {
		old.Unseal()
		return fmt.Errorf("hbase: reopen %s: %w", r.name, err)
	}
	if err := ns.ImportEntries(entries); err != nil {
		ns.Close()
		old.Unseal()
		return fmt.Errorf("hbase: reopen %s: %w", r.name, err)
	}
	r.store.Store(ns)
	r.resetMirror(ns, false)
	old.Close()
	return nil
}
