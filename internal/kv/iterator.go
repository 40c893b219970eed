package kv

import "container/heap"

// mergeIterator combines several sorted iterators into one sorted stream,
// used for scans (memstore + every store file) and compactions. Ordering
// is (key asc, timestamp desc), so all versions of a key come out
// adjacent, newest first; ties across sources break toward the
// lower-indexed (newer) source.
type mergeIterator struct {
	h       mergeHeap
	current Entry
}

type mergeSource struct {
	it    Iterator
	entry Entry
	rank  int // lower rank = newer source, wins timestamp ties
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].entry, h[j].entry
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.Timestamp != b.Timestamp {
		return a.Timestamp > b.Timestamp
	}
	return h[i].rank < h[j].rank
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); s := old[n-1]; *h = old[:n-1]; return s }

// newMergeIterator builds a merged stream; sources must be ordered
// newest-first so version shadowing resolves correctly on ties.
func newMergeIterator(sources []Iterator) Iterator {
	m := &mergeIterator{}
	for rank, it := range sources {
		if it.Next() {
			m.h = append(m.h, &mergeSource{it: it, entry: it.Entry(), rank: rank})
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *mergeIterator) Next() bool {
	if len(m.h) == 0 {
		return false
	}
	src := m.h[0]
	m.current = src.entry
	if src.it.Next() {
		src.entry = src.it.Entry()
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return true
}

func (m *mergeIterator) Entry() Entry { return m.current }

// dedupIterator collapses a (key asc, ts desc) stream to the newest
// version per key, optionally dropping tombstones (major compaction and
// user-visible scans drop them; minor merges keep them to continue
// shadowing older files).
type dedupIterator struct {
	in             Iterator
	dropTombstones bool
	current        Entry
	pending        Entry
	hasPending     bool
}

func newDedupIterator(in Iterator, dropTombstones bool) Iterator {
	return &dedupIterator{in: in, dropTombstones: dropTombstones}
}

func (d *dedupIterator) Next() bool {
	for {
		var e Entry
		if d.hasPending {
			e = d.pending
			d.hasPending = false
		} else {
			if !d.in.Next() {
				return false
			}
			e = d.in.Entry()
		}
		// e is the newest version of its key; skip the older versions.
		for d.in.Next() {
			n := d.in.Entry()
			if n.Key != e.Key {
				d.pending = n
				d.hasPending = true
				break
			}
		}
		if e.Tombstone && d.dropTombstones {
			continue
		}
		d.current = e
		return true
	}
}

func (d *dedupIterator) Entry() Entry { return d.current }
