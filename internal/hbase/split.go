package hbase

import (
	"fmt"
	"sort"
)

// DefaultSplitThresholdBytes is HBase's default automatic-partitioning
// threshold the paper cites (a region splits when it grows past 250 MB).
const DefaultSplitThresholdBytes = 250 << 20

// SplitRegion splits a region at the median of its live keys into two
// daughter regions hosted by the same server, reproducing HBase's
// automatic partitioning (Section 2: "the automatic partitioning of a
// HTable occurs when it grows to a parametrized size"). The parent's
// HDFS files are released; daughters write their own on their next
// flush or compaction.
func (m *Master) SplitRegion(regionName string) error {
	host, ok := m.HostOf(regionName)
	if !ok {
		return fmt.Errorf("hbase: split: unknown region %q", regionName)
	}
	rs, err := m.Server(host)
	if err != nil {
		return err
	}
	m.mu.Lock()
	var tbl *Table
	for _, t := range m.tables {
		for _, r := range t.Regions() {
			if r.Name() == regionName {
				tbl = t
			}
		}
	}
	m.mu.Unlock()
	if tbl == nil {
		return fmt.Errorf("hbase: split: region %q has no table", regionName)
	}
	parent := rs.CloseRegion(regionName)
	if parent == nil {
		return fmt.Errorf("hbase: split: region %q not open on %q", regionName, host)
	}
	// Seal the parent before copying: an in-flight write either landed
	// before the seal (and reaches a daughter) or fails unacknowledged
	// with kv.ErrClosed — never acknowledged-then-dropped.
	parent.Store().Seal()
	reopen := func() {
		parent.Store().Unseal()
		rs.OpenRegion(parent)
	}

	entries, err := parent.Store().Scan(parent.StartKey(), parent.EndKey(), -1)
	if err != nil {
		reopen()
		return fmt.Errorf("hbase: split %s: %w", regionName, err)
	}
	if len(entries) < 2 {
		reopen()
		return fmt.Errorf("hbase: split %s: too little data to split", regionName)
	}
	mid := entries[len(entries)/2].Key
	if mid == parent.StartKey() {
		reopen()
		return fmt.Errorf("hbase: split %s: degenerate split key", regionName)
	}

	gen, err := m.layout.nextGen()
	if err != nil {
		reopen()
		return fmt.Errorf("hbase: split %s: %w", regionName, err)
	}
	loName := fmt.Sprintf("%s,%s.%d", parent.Table(), parent.StartKey(), gen)
	hiName := fmt.Sprintf("%s,%s.%d", parent.Table(), mid, gen)
	// discard abandons a half-created daughter: its store closes and,
	// on the durable backend, its directory (partial WAL records) is
	// reclaimed — a retried split mints fresh daughter names, so an
	// orphaned directory would never be reused.
	discard := func(d *Region) { discardRegionStore(rs, d) }
	lo, err := newRegionNamed(loName, parent.Table(), parent.StartKey(), mid,
		rs.storeConfigFor(loName, rs.NumRegions()+2))
	if err != nil {
		reopen()
		return fmt.Errorf("hbase: split %s: %w", regionName, err)
	}
	hi, err := newRegionNamed(hiName, parent.Table(), mid, parent.EndKey(),
		rs.storeConfigFor(hiName, rs.NumRegions()+2))
	if err != nil {
		discard(lo)
		reopen()
		return fmt.Errorf("hbase: split %s: %w", regionName, err)
	}
	// Bulk-import each half: one group-commit fsync per daughter on the
	// durable backend instead of one per entry.
	split := sort.Search(len(entries), func(i int) bool { return entries[i].Key >= mid })
	if err := lo.Store().ImportEntries(entries[:split]); err == nil {
		err = hi.Store().ImportEntries(entries[split:])
	}
	if err != nil {
		discard(lo)
		discard(hi)
		reopen()
		return fmt.Errorf("hbase: split %s: %w", regionName, err)
	}
	m.layout.crash("split.daughters-ready")
	// Release the parent's HDFS files; the daughters start clean.
	for _, f := range parent.Files() {
		_ = m.namenode.DeleteFile(f)
	}
	// Daughters replicate like any new region; the parent's replica
	// directories become orphans once the split commits.
	followers := m.layout.pickFollowers(host, nil)
	lo.SetFollowers(followers)
	hi.SetFollowers(followers)
	// Assign and open the daughters before the table names them: a
	// client that routes to a daughter must find it hosted.
	m.mu.Lock()
	m.assignment[lo.Name()] = host
	m.assignment[hi.Name()] = host
	m.mu.Unlock()
	rs.OpenRegion(lo)
	rs.OpenRegion(hi)
	tbl.replaceRegion(parent, lo, hi)
	m.mu.Lock()
	delete(m.assignment, regionName)
	m.mu.Unlock()
	// Commit point: one table-row write replaces the parent with both
	// daughters atomically. A crash before it cold-starts the parent
	// (daughter directories are swept as orphans); after it, the
	// daughters (the parent directory is the orphan).
	if err := m.commitTableOf(parent.Table()); err != nil {
		// The in-memory split already happened and the daughters hold
		// the data; surface the persistence failure rather than
		// attempting a lossy rollback. The parent directory is kept —
		// the catalog still names the parent, so a cold start serves
		// from it.
		return fmt.Errorf("hbase: split %s: commit: %w", regionName, err)
	}
	m.layout.crash("split.committed")
	// The daughters are authoritative; stragglers still holding the
	// parent's store see ErrClosed from here on. A durable parent's
	// directory is reclaimed — its data now lives in the daughters'
	// logs and SSTables.
	discardRegionStore(rs, parent)
	return nil
}

// AutoSplit scans every table and splits regions larger than threshold
// bytes (<= 0 uses the 250 MB default). It returns the regions split.
func (m *Master) AutoSplit(threshold int64) []string {
	if threshold <= 0 {
		threshold = DefaultSplitThresholdBytes
	}
	var split []string
	for _, name := range m.Tables() {
		t, err := m.Table(name)
		if err != nil {
			continue
		}
		for _, r := range t.Regions() {
			if r.DataBytes() > threshold {
				if err := m.SplitRegion(r.Name()); err == nil {
					split = append(split, r.Name())
				}
			}
		}
	}
	return split
}
