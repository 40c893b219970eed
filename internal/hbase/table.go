package hbase

import (
	"sort"
	"sync"
)

// Table is HTable metadata: an ordered list of regions partitioning the
// key space. The data model is the paper's: a sorted map indexed by row
// key (column families are flattened into the key by the workloads, which
// use a single family).
// Table metadata is read on every client operation (RegionFor) and
// mutated only by splits and table creation, so readers share the lock.
type Table struct {
	mu      sync.RWMutex
	name    string
	bounds  []keyRange
	regions []*Region // sorted by start key
	// splitKeys preserves the creation-time pre-split points for the
	// META catalog's table row (current region bounds live with the
	// regions themselves and evolve through splits).
	splitKeys []string
}

type keyRange struct {
	start, end string
}

// newTable computes the region boundaries induced by splitKeys: n keys
// make n+1 regions, ["", k0), [k0, k1), ..., [kn-1, "").
func newTable(name string, splitKeys []string) *Table {
	t := &Table{name: name, splitKeys: append([]string(nil), splitKeys...)}
	start := ""
	for _, k := range splitKeys {
		t.bounds = append(t.bounds, keyRange{start: start, end: k})
		start = k
	}
	t.bounds = append(t.bounds, keyRange{start: start, end: ""})
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

func (t *Table) addRegion(r *Region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.regions = append(t.regions, r)
	sort.Slice(t.regions, func(i, j int) bool { return t.regions[i].StartKey() < t.regions[j].StartKey() })
}

// Regions returns the table's regions in key order.
func (t *Table) Regions() []*Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Region(nil), t.regions...)
}

// NumRegions returns the number of regions.
func (t *Table) NumRegions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions)
}

// RegionFor returns the region containing key.
func (t *Table) RegionFor(key string) *Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Last region whose start key <= key.
	i := sort.Search(len(t.regions), func(i int) bool { return t.regions[i].StartKey() > key })
	if i == 0 {
		return t.regions[0]
	}
	return t.regions[i-1]
}

// swapRegion substitutes nw for the region object covering the same
// key range (failover replaces a dead server's region with its
// generation-suffixed recovery twin).
func (t *Table) swapRegion(nw *Region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range t.regions {
		if r.StartKey() == nw.StartKey() {
			t.regions[i] = nw
			return
		}
	}
}

// replaceRegion swaps a parent region for its two daughters (splits).
func (t *Table) replaceRegion(parent, lo, hi *Region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.regions[:0]
	for _, r := range t.regions {
		if r != parent {
			kept = append(kept, r)
		}
	}
	t.regions = append(kept, lo, hi)
	sort.Slice(t.regions, func(i, j int) bool { return t.regions[i].StartKey() < t.regions[j].StartKey() })
}

// RegionNames returns the region names in key order.
func (t *Table) RegionNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.regions))
	for i, r := range t.regions {
		out[i] = r.Name()
	}
	return out
}
