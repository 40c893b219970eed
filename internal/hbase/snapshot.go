package hbase

// Point-in-time table snapshots over the durable backend. A snapshot is
// an archived copy of every region's SSTable stack plus a manifest row
// in the META catalog (snapshot/<table>/<name>) listing the exact file
// set and each region's WAL high-water mark. Files are copied under
//
//	<DataDir>/snapshots/<table>/<name>/<region>/sst-*.sst
//
// with the crash-consistent temp/fsync/rename discipline, and the
// manifest — one fsynced catalog Put — is the commit point: a crash
// before it leaves an orphan archive directory OpenCluster sweeps, so
// the snapshot is cleanly absent, never half-taken. RestoreSnapshot
// rebuilds the table from the archive the same way a split replaces a
// parent: fresh generation-suffixed regions are built first, one
// table-row commit atomically switches the layout, and the superseded
// regions' directories are reclaimed afterwards (the losing side of a
// crash is always the orphan).

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"

	"met/internal/replication"
)

// ErrNoCatalog is returned by snapshot and restore operations on a
// cluster without a durable META catalog (no DataDir).
var ErrNoCatalog = errors.New("hbase: operation requires a durable cluster (META catalog)")

// ErrUnknownSnapshot is returned when restoring a snapshot name that
// was never committed.
var ErrUnknownSnapshot = errors.New("hbase: unknown snapshot")

// ErrSnapshotExists is returned when taking a snapshot under a name the
// table already has one committed for.
var ErrSnapshotExists = errors.New("hbase: snapshot exists")

// snapshotDir is the archive directory of one snapshot.
func snapshotDir(dataDir, table, name string) string {
	return filepath.Join(dataDir, "snapshots", url.PathEscape(table), url.PathEscape(name))
}

// snapshotRegionDir is one region's archive inside a snapshot.
func snapshotRegionDir(dataDir, table, name, region string) string {
	return filepath.Join(snapshotDir(dataDir, table, name), url.PathEscape(region))
}

// Snapshot archives a point-in-time copy of a table: every region's
// memstore is flushed, its SSTables are copied into the snapshot
// directory, and one fsynced manifest row commits the snapshot. The
// manifest records the exact SSTable set and the WAL high-water mark
// (newest timestamp) each region's archive covers; writes acknowledged
// after a region's flush are not part of the snapshot, exactly like an
// HBase snapshot taken under load.
func (m *Master) Snapshot(table, name string) error {
	cat := m.layout.catalog()
	if cat == nil {
		return ErrNoCatalog
	}
	t, err := m.Table(table)
	if err != nil {
		return err
	}
	// Reserve the name before the existence check: two concurrent
	// Snapshot calls for the same name must resolve to exactly one
	// winner, and the loser's error-path archive cleanup must never
	// delete a directory a committer is (or has finished) filling.
	key := table + "/" + name
	m.mu.Lock()
	if m.snapshotting[key] {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s (in progress)", ErrSnapshotExists, key)
	}
	m.snapshotting[key] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.snapshotting, key)
		m.mu.Unlock()
	}()
	var existing snapshotRow
	if ok, err := cat.get(snapshotKey(table, name), &existing); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s/%s", ErrSnapshotExists, table, name)
	}

	row := snapshotRow{Table: table}
	for _, r := range t.Regions() {
		host, ok := m.HostOf(r.Name())
		if !ok {
			return fmt.Errorf("hbase: snapshot %s/%s: region %q unassigned", table, name, r.Name())
		}
		if _, err := m.Server(host); err != nil {
			return err
		}
		sr, err := archiveRegion(cat.dir, r, table, name)
		if err != nil {
			_ = os.RemoveAll(snapshotDir(cat.dir, table, name))
			return err
		}
		row.Regions = append(row.Regions, sr)
	}
	m.layout.crash("snapshot.files-copied")
	if err := cat.put(snapshotKey(table, name), &row.Rev, &row); err != nil {
		_ = os.RemoveAll(snapshotDir(cat.dir, table, name))
		return err
	}
	m.layout.crash("snapshot.committed")
	return nil
}

// archiveRegion flushes one region and copies its SSTable stack into
// the snapshot archive. A file compacted away between the export
// snapshot and the copy makes the snapshot stale, so the region is
// re-exported and re-copied (already-archived files are skipped).
func archiveRegion(dataDir string, r *Region, table, name string) (snapshotRegion, error) {
	sr := snapshotRegion{Name: r.Name(), Start: r.StartKey(), End: r.EndKey()}
	dir := snapshotRegionDir(dataDir, table, name, r.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sr, err
	}
	store := r.Store()
	if err := store.Flush(); err != nil {
		return sr, fmt.Errorf("hbase: snapshot flush %s: %w", r.Name(), err)
	}
	for attempt := 0; ; attempt++ {
		files, ok := store.ExportFiles()
		if !ok {
			return sr, fmt.Errorf("hbase: snapshot %s: region %s has no exportable backend (in-memory store)", name, r.Name())
		}
		sr.Files = sr.Files[:0]
		sr.MaxTS = 0
		stale := false
		for _, f := range files {
			dst := filepath.Join(dir, filepath.Base(f.Path))
			if _, err := os.Stat(dst); err == nil {
				// Already archived by a previous attempt.
			} else if _, err := replication.CopyFile(f.Path, dst); err != nil {
				if os.IsNotExist(err) {
					stale = true // compacted away mid-archive; re-export
					break
				}
				return sr, fmt.Errorf("hbase: snapshot copy %s: %w", f.Path, err)
			}
			sr.Files = append(sr.Files, f.ID)
			if f.MaxTS > sr.MaxTS {
				sr.MaxTS = f.MaxTS
			}
		}
		if !stale {
			return sr, nil
		}
		if attempt >= 3 {
			return sr, fmt.Errorf("hbase: snapshot %s: region %s kept compacting during archive", name, r.Name())
		}
	}
}

// Snapshots lists the committed snapshot names of a table, sorted. The
// catalog keys are prefix-ordered, so only the table's own snapshot
// rows are scanned — never the whole catalog.
func (m *Master) Snapshots(table string) ([]string, error) {
	cat := m.layout.catalog()
	if cat == nil {
		return nil, ErrNoCatalog
	}
	prefix := snapshotKey(table, "")
	// "0" is "/"+1: the half-open scan covers exactly the keys under
	// snapshot/<table>/.
	end := catalogSnapshotPfx + table + "0"
	entries, err := cat.store.Scan(prefix, end, -1)
	if err != nil {
		return nil, fmt.Errorf("hbase: snapshot list %s: %w", table, err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Key[len(prefix):])
	}
	sort.Strings(out)
	return out, nil
}

// RestoreSnapshot rebuilds table from a committed snapshot: fresh
// generation-suffixed regions are seeded from the archived SSTables and
// opened, then ONE table-row commit atomically replaces the current
// layout (if any) with the restored one, then the superseded regions'
// directories and replica copies are reclaimed. Data written after the
// snapshot was taken is gone, by definition of restore; data in the
// snapshot is complete up to each region's recorded high-water mark. A
// crash before the commit leaves the current table untouched (the
// seeded directories are swept); after it, the restored table is
// authoritative (the old directories are swept).
func (m *Master) RestoreSnapshot(table, name string) error {
	cat := m.layout.catalog()
	if cat == nil {
		return ErrNoCatalog
	}
	var row snapshotRow
	if ok, err := cat.get(snapshotKey(table, name), &row); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s/%s", ErrUnknownSnapshot, table, name)
	}
	sort.Slice(row.Regions, func(i, j int) bool { return row.Regions[i].Start < row.Regions[j].Start })

	m.mu.Lock()
	if len(m.servers) == 0 {
		m.mu.Unlock()
		return ErrNoServers
	}
	serverNames := make([]string, 0, len(m.servers))
	for sn := range m.servers {
		serverNames = append(serverNames, sn)
	}
	sort.Strings(serverNames)
	balancer := m.balancer
	m.mu.Unlock()
	gen, err := m.layout.nextGen()
	if err != nil {
		return err
	}

	splitKeys := make([]string, 0, len(row.Regions))
	newNames := make([]string, 0, len(row.Regions))
	for i, rr := range row.Regions {
		if i > 0 {
			splitKeys = append(splitKeys, rr.Start)
		}
		newNames = append(newNames, fmt.Sprintf("%s.%d", rr.Name, gen))
	}
	plan := balancer.Assign(newNames, serverNames)

	nt := newTable(table, splitKeys)
	var opened []*Region
	var hosts []string // of the regions seeded so far: follower placement counts them
	unwind := func() {
		m.mu.Lock()
		for _, r := range opened {
			delete(m.assignment, r.Name())
		}
		m.mu.Unlock()
		for _, r := range opened {
			r.Store().Close()
			_ = os.RemoveAll(regionDataDir(cat.dir, r.Name()))
		}
	}
	for i, rr := range row.Regions {
		newName := newNames[i]
		host := plan[newName]
		rs, err := m.Server(host)
		if err != nil {
			unwind()
			return err
		}
		if err := seedRegionDir(regionDataDir(rs.Config().DataDir, newName),
			snapshotRegionDir(cat.dir, table, name, rr.Name), rr.Files); err != nil {
			unwind()
			return fmt.Errorf("hbase: restore %s/%s: %w", table, name, err)
		}
		nr, err := newRegionNamed(newName, table, rr.Start, rr.End,
			rs.storeConfigFor(newName, rs.NumRegions()+1))
		if err != nil {
			unwind()
			return fmt.Errorf("hbase: restore %s/%s: %w", table, name, err)
		}
		nr.SetFollowers(m.layout.pickFollowers(host, hosts))
		nt.addRegion(nr)
		m.mu.Lock()
		m.assignment[newName] = host
		m.mu.Unlock()
		opened = append(opened, nr)
		hosts = append(hosts, host)
	}

	m.layout.crash("restore.regions-ready")
	// Commit point: the table row now names the restored regions.
	if err := m.commitTable(nt); err != nil {
		unwind()
		return err
	}

	// Swap in-memory metadata and start serving the restored regions.
	m.mu.Lock()
	oldT := m.tables[table]
	m.tables[table] = nt
	var oldRegions []*Region
	if oldT != nil {
		for _, r := range oldT.Regions() {
			oldRegions = append(oldRegions, r)
		}
	}
	oldAssign := make(map[string]string, len(oldRegions))
	for _, r := range oldRegions {
		oldAssign[r.Name()] = m.assignment[r.Name()]
		delete(m.assignment, r.Name())
	}
	m.mu.Unlock()
	for _, r := range nt.Regions() {
		host, _ := m.HostOf(r.Name())
		if rs, err := m.Server(host); err == nil {
			rs.OpenRegion(r)
		}
	}
	m.layout.crash("restore.committed")

	// Reclaim the superseded regions: stop serving them, release their
	// HDFS files, and delete their primary directories and replica
	// copies (the catalog no longer references them).
	for _, r := range oldRegions {
		host := oldAssign[r.Name()]
		rs, err := m.Server(host)
		if err != nil {
			r.Store().Close()
			continue
		}
		rs.CloseRegion(r.Name())
		for _, f := range r.Files() {
			_ = m.namenode.DeleteFile(f)
		}
		for _, f := range r.Followers() {
			_ = os.RemoveAll(replicaDir(rs.Config().DataDir, f, r.Name()))
		}
		discardRegionStore(rs, r)
	}
	return nil
}
