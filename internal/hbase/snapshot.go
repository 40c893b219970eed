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
	regions, ok := m.layout.routes.Load().tables[table]
	if !ok {
		return ErrUnknownTable
	}
	// Reserve the name before the existence check: two concurrent
	// Snapshot calls for the same name must resolve to exactly one
	// winner, and the loser's error-path archive cleanup must never
	// delete a directory a committer is (or has finished) filling.
	key := "snapshot/" + table + "/" + name
	if !m.reserve(key) {
		return fmt.Errorf("%w: %s/%s (in progress)", ErrSnapshotExists, table, name)
	}
	defer m.release(key)
	var existing snapshotRow
	if ok, err := cat.get(snapshotKey(table, name), &existing); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s/%s", ErrSnapshotExists, table, name)
	}

	row := snapshotRow{Table: table}
	for _, lr := range regions {
		rs, err := m.Server(lr.Server)
		if err != nil {
			return err
		}
		r := rs.region(lr.Name)
		if r == nil {
			return fmt.Errorf("hbase: snapshot %s/%s: region %q not open on %q", table, name, lr.Name, lr.Server)
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

	gen, err := m.layout.nextGen()
	if err != nil {
		return err
	}
	var splitKeys []string
	rows := make([]regionRow, len(row.Regions))
	for i, rr := range row.Regions {
		if i > 0 {
			splitKeys = append(splitKeys, rr.Start)
		}
		rows[i] = regionRow{Name: fmt.Sprintf("%s.%d", rr.Name, gen), Start: rr.Start, End: rr.End}
	}
	st, err := m.stage(table, rows, func(dataDir string, i int) error {
		return seedRegionDir(regionDataDir(dataDir, rows[i].Name),
			snapshotRegionDir(cat.dir, table, name, row.Regions[i].Name), row.Regions[i].Files)
	})
	if err != nil {
		return fmt.Errorf("hbase: restore %s/%s: %w", table, name, err)
	}

	m.layout.crash("restore.regions-ready")
	// Commit point: the table row now names the restored regions, and
	// only then do their hosts serve them — until it, every key still
	// routes to the layout being replaced.
	old := m.layout.routes.Load().tables[table]
	if err := m.layout.putTable(table, tableRow{SplitKeys: splitKeys, Regions: rows}); err != nil {
		st.discard()
		return err
	}
	st.open()

	m.layout.crash("restore.committed")

	// Reclaim the superseded regions: stop serving them, release their
	// HDFS files, and delete their primary directories and replica
	// copies (the catalog no longer references them).
	for _, lr := range old {
		rs, err := m.Server(lr.Server)
		if err != nil {
			continue
		}
		r := rs.CloseRegion(lr.Name)
		if r == nil {
			continue
		}
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
