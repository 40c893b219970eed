package kv

import (
	"sync/atomic"

	"met/internal/sim"
)

const maxSkipLevel = 18

// Memstore is the in-memory write buffer: a skiplist keyed by (key,
// descending timestamp) so that all versions of a key are adjacent with
// the newest first. It corresponds to HBase's MemStore; when its byte
// footprint exceeds the configured threshold the store flushes it to an
// immutable file.
//
// Concurrency: the memstore is single-writer, multi-reader. Add must be
// serialized externally (the store's write lock does this), but Get and
// the iterators may run concurrently with one Add: nodes are fully
// initialized before being published, and every link is an atomic
// pointer stored bottom-up, so a concurrent reader sees each node either
// not at all or completely — never half-linked. Entries already inserted
// are immutable (the identical-coordinates case replaces the whole node,
// not the entry in place).
type Memstore struct {
	head  *skipNode
	level atomic.Int32 // current tower height; readers tolerate stale values
	rng   *sim.RNG
	bytes int
	count int
	maxTS uint64
}

type skipNode struct {
	entry Entry
	next  [maxSkipLevel]atomic.Pointer[skipNode]
}

// NewMemstore returns an empty memstore. The seed keeps skiplist tower
// heights — and therefore iteration performance — deterministic.
func NewMemstore(seed uint64) *Memstore {
	m := &Memstore{head: &skipNode{}, rng: sim.NewRNG(seed)}
	m.level.Store(1)
	return m
}

// less orders by key ascending, then timestamp descending (newest
// version first).
func less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Timestamp > b.Timestamp
}

func (m *Memstore) randomLevel() int {
	lvl := 1
	for lvl < maxSkipLevel && m.rng.Uint64()&3 == 0 { // p = 1/4
		lvl++
	}
	return lvl
}

// Add inserts a new entry version. Entries with identical (key,
// timestamp) replace the previous value, matching HBase semantics where
// a cell is identified by its coordinates. Callers serialize Adds;
// readers may proceed concurrently.
func (m *Memstore) Add(e Entry) {
	var update [maxSkipLevel]*skipNode
	level := int(m.level.Load())
	x := m.head
	for i := level - 1; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt == nil || !less(nxt.entry, e) {
				break
			}
			x = nxt
		}
		update[i] = x
	}
	if cand := x.next[0].Load(); cand != nil && cand.entry.Key == e.Key && cand.entry.Timestamp == e.Timestamp {
		// Same cell coordinates: substitute a fresh node carrying the new
		// value. In-place entry mutation would tear under a concurrent
		// lock-free reader; node substitution gives readers either the
		// old node or the new one, both fully formed.
		repl := &skipNode{entry: e}
		for i := 0; i < level; i++ {
			if update[i].next[i].Load() != cand {
				break
			}
			repl.next[i].Store(cand.next[i].Load())
		}
		for i := 0; i < level; i++ {
			if update[i].next[i].Load() != cand {
				break
			}
			update[i].next[i].Store(repl)
		}
		m.bytes += e.Size() - cand.entry.Size()
		if e.Timestamp > m.maxTS {
			m.maxTS = e.Timestamp
		}
		return
	}
	lvl := m.randomLevel()
	if lvl > level {
		for i := level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level.Store(int32(lvl))
	}
	n := &skipNode{entry: e}
	for i := 0; i < lvl; i++ {
		n.next[i].Store(update[i].next[i].Load())
	}
	// Publish bottom-up: once the level-0 link lands, the node is fully
	// reachable and fully initialized; upper links are shortcuts that may
	// appear later without affecting readers' correctness.
	for i := 0; i < lvl; i++ {
		update[i].next[i].Store(n)
	}
	m.bytes += e.Size()
	m.count++
	if e.Timestamp > m.maxTS {
		m.maxTS = e.Timestamp
	}
}

// Get returns the newest version of key, if any.
func (m *Memstore) Get(key string) (Entry, bool) {
	x := m.head
	probe := Entry{Key: key, Timestamp: ^uint64(0)}
	for i := int(m.level.Load()) - 1; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt == nil || !less(nxt.entry, probe) {
				break
			}
			x = nxt
		}
	}
	if n := x.next[0].Load(); n != nil && n.entry.Key == key {
		return n.entry, true
	}
	return Entry{}, false
}

// Bytes returns the approximate heap footprint of buffered entries.
func (m *Memstore) Bytes() int { return m.bytes }

// Len returns the number of buffered entry versions.
func (m *Memstore) Len() int { return m.count }

// MaxTimestamp returns the newest timestamp buffered (0 when empty).
func (m *Memstore) MaxTimestamp() uint64 { return m.maxTS }

// Iterator returns an iterator over all buffered versions in (key asc,
// timestamp desc) order. Iteration is safe under a concurrent Add; it
// observes a prefix-consistent view of the list.
func (m *Memstore) Iterator() Iterator {
	return &memstoreIter{node: m.head.next[0].Load()}
}

// IteratorFrom returns an iterator positioned at the first entry with
// key >= start. The first row is fixed here, at creation: an Add that
// lands between start's predecessor and start before the first Next
// must not surface as a row below start.
func (m *Memstore) IteratorFrom(start string) Iterator {
	x := m.head
	probe := Entry{Key: start, Timestamp: ^uint64(0)}
	var first *skipNode
	for i := int(m.level.Load()) - 1; i >= 0; i-- {
		for {
			first = x.next[i].Load()
			if first == nil || !less(first.entry, probe) {
				break
			}
			x = first
		}
	}
	// first is the very node the level-0 walk judged >= start; loading
	// x.next[0] again could return a node an Add linked in since.
	return &memstoreIter{node: first}
}

// memstoreIter holds the node the first Next lands on (chosen at
// creation), then the current node.
type memstoreIter struct {
	node    *skipNode
	started bool
}

func (it *memstoreIter) Next() bool {
	if !it.started {
		it.started = true
	} else if it.node != nil {
		it.node = it.node.next[0].Load()
	}
	return it.node != nil
}

func (it *memstoreIter) Entry() Entry { return it.node.entry }
