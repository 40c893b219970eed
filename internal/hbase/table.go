package hbase

import (
	"cmp"
	"fmt"
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

// RouteTable is one routing epoch's layout, immutable once built:
// every region in table-then-key order, each table's run of that list,
// and each region's position by name. LayoutMaster publishes one at
// every commit, which the in-process client loads on every operation;
// rpc.Client builds one from each layout it fetches. Readers load it
// with one atomic read and take no lock.
type RouteTable struct {
	epoch   int64
	regions []LayoutRegion
	tables  map[string][]LayoutRegion // subslices of regions
	byName  map[string]int            // index into regions
}

// NewRouteTable indexes regions as routing epoch epoch and takes
// ownership of the slice. It sorts the list by table, then start key,
// so the regions may arrive in any order — off the wire, say.
func NewRouteTable(epoch int64, regions []LayoutRegion) *RouteTable {
	slices.SortFunc(regions, func(a, b LayoutRegion) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Start, b.Start))
	})
	rt := &RouteTable{
		epoch:   epoch,
		regions: regions,
		tables:  make(map[string][]LayoutRegion),
		byName:  make(map[string]int, len(regions)),
	}
	first := 0
	for i, r := range regions {
		rt.byName[r.Name] = i
		if i+1 == len(regions) || regions[i+1].Table != r.Table {
			rt.tables[r.Table] = regions[first : i+1 : i+1]
			first = i + 1
		}
	}
	return rt
}

// newRouteTable indexes the committed table rows as routing epoch
// epoch. The follower slices are shared with the rows, which are
// replaced whole and never modified.
func newRouteTable(epoch int64, rows map[string]*tableRow) *RouteTable {
	var regions []LayoutRegion
	for tn, row := range rows {
		for _, rr := range row.Regions {
			regions = append(regions, LayoutRegion{
				Name: rr.Name, Table: tn, Start: rr.Start, End: rr.End,
				Server: rr.Server, Followers: rr.Followers,
			})
		}
	}
	return NewRouteTable(epoch, regions)
}

// Epoch returns the table's routing epoch.
func (rt *RouteTable) Epoch() int64 { return rt.epoch }

// Regions returns a copy of every region, by table, then key order.
// The follower slices are shared and must not be modified.
func (rt *RouteTable) Regions() []LayoutRegion { return slices.Clone(rt.regions) }

// region returns the committed row of the region called name.
func (rt *RouteTable) region(name string) (LayoutRegion, bool) {
	i, ok := rt.byName[name]
	if !ok {
		return LayoutRegion{}, false
	}
	return rt.regions[i], true
}

// Lookup returns the region of table that this epoch routes key to.
func (rt *RouteTable) Lookup(table, key string) (LayoutRegion, error) {
	regions, ok := rt.tables[table]
	if !ok {
		return LayoutRegion{}, ErrUnknownTable
	}
	// Last region whose start key <= key.
	i := sort.Search(len(regions), func(i int) bool { return regions[i].Start > key })
	if i == 0 {
		return LayoutRegion{}, fmt.Errorf("hbase: no region for key %q", key)
	}
	return regions[i-1], nil
}
