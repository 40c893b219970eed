package hbase

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Table is a read-only snapshot of an HTable: its regions in key order,
// partitioning the key space, as the route table of one epoch lays them
// out. The data model is the paper's: a sorted map indexed by row key
// (column families are flattened into the key by the workloads, which
// use a single family). A snapshot does not follow later splits or
// moves; Master.Table takes a fresh one.
type Table struct {
	name    string
	regions []*Region // sorted by start key
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Regions returns the table's regions in key order.
func (t *Table) Regions() []*Region { return slices.Clone(t.regions) }

// NumRegions returns the number of regions.
func (t *Table) NumRegions() int { return len(t.regions) }

// RegionFor returns the region containing key, or nil when the snapshot
// holds none (its region was mid-split when the snapshot was taken).
func (t *Table) RegionFor(key string) *Region {
	// Last region whose start key <= key.
	i := sort.Search(len(t.regions), func(i int) bool { return t.regions[i].StartKey() > key })
	if i == 0 || !t.regions[i-1].Contains(key) {
		return nil
	}
	return t.regions[i-1]
}

// RegionNames returns the region names in key order.
func (t *Table) RegionNames() []string {
	out := make([]string, len(t.regions))
	for i, r := range t.regions {
		out[i] = r.Name()
	}
	return out
}

// routeTable is one routing epoch's layout, immutable once LayoutMaster
// publishes it: every committed region in table-then-key order, each
// table's run of that list, and each region's position by name. Readers
// — the in-process client on every operation, HostOf, Layout — load it
// with one atomic read and take no lock.
type routeTable struct {
	epoch   int64
	regions []LayoutRegion
	tables  map[string][]LayoutRegion // subslices of regions
	byName  map[string]int            // index into regions
}

// newRouteTable indexes the committed table rows as routing epoch
// epoch. Rows list their regions in key order, so each table's run is
// sorted as it stands; the follower slices are shared with the rows,
// which are replaced whole and never modified.
func newRouteTable(epoch int64, rows map[string]*tableRow) *routeTable {
	n := 0
	for _, row := range rows {
		n += len(row.Regions)
	}
	rt := &routeTable{
		epoch:   epoch,
		regions: make([]LayoutRegion, 0, n),
		tables:  make(map[string][]LayoutRegion, len(rows)),
		byName:  make(map[string]int, n),
	}
	for _, tn := range slices.Sorted(maps.Keys(rows)) {
		first := len(rt.regions)
		for _, rr := range rows[tn].Regions {
			rt.byName[rr.Name] = len(rt.regions)
			rt.regions = append(rt.regions, LayoutRegion{
				Name: rr.Name, Table: tn, Start: rr.Start, End: rr.End,
				Server: rr.Server, Followers: rr.Followers,
			})
		}
		rt.tables[tn] = rt.regions[first:len(rt.regions):len(rt.regions)]
	}
	return rt
}

// region returns the committed row of the region called name.
func (rt *routeTable) region(name string) (LayoutRegion, bool) {
	i, ok := rt.byName[name]
	if !ok {
		return LayoutRegion{}, false
	}
	return rt.regions[i], true
}

// hostFor returns the server this epoch assigns the region of table
// that holds key.
func (rt *routeTable) hostFor(table, key string) (string, error) {
	regions, ok := rt.tables[table]
	if !ok {
		return "", ErrUnknownTable
	}
	// Last region whose start key <= key.
	i := sort.Search(len(regions), func(i int) bool { return regions[i].Start > key })
	if i == 0 {
		return "", fmt.Errorf("hbase: no region for key %q", key)
	}
	return regions[i-1].Server, nil
}
