package hbase

import (
	"fmt"
	"sort"
)

// SplitRegion splits a region at the median of its live keys into two
// daughter regions hosted by the same server, reproducing HBase's
// automatic partitioning (Section 2: "the automatic partitioning of a
// HTable occurs when it grows to a parametrized size"). The parent's
// HDFS files are released; daughters write their own on their next
// flush or compaction.
func (m *Master) SplitRegion(regionName string) error {
	key := "region/" + regionName
	if !m.reserve(key) {
		return fmt.Errorf("hbase: split: region %q has an operation in flight", regionName)
	}
	defer m.release(key)
	lr, ok := m.layout.routes.Load().region(regionName)
	if !ok {
		return fmt.Errorf("hbase: split: unknown region %q", regionName)
	}
	host := lr.Server
	rs, err := m.Server(host)
	if err != nil {
		return err
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
	// Open the daughters before the row names them: until the commit,
	// clients still route to the parent's host, which now answers the
	// parent's keys from the daughters.
	rs.OpenRegion(lo)
	rs.OpenRegion(hi)
	// Commit point: one table-row write replaces the parent with both
	// daughters atomically. A crash before it cold-starts the parent
	// (daughter directories are swept as orphans); after it, the
	// daughters (the parent directory is the orphan).
	if err := m.layout.replaceRegion(lr.Table, regionName,
		regionRow{Name: loName, Start: lo.StartKey(), End: mid, Server: host, Followers: followers},
		regionRow{Name: hiName, Start: mid, End: hi.EndKey(), Server: host, Followers: followers},
	); err != nil {
		// The daughters already serve the parent's keys and hold
		// everything written since; surface the persistence failure
		// rather than attempting a lossy rollback. The parent directory
		// is kept — the catalog still names the parent, so a cold start
		// serves from it.
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
