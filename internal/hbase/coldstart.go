package hbase

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"

	"met/internal/hdfs"
)

// OpenCluster cold-starts a whole cluster from its data directory
// alone: the META catalog (see catalog.go) is loaded through the layout
// master's loader, every member is opened from its manifest exactly as
// a worker process opens it (openServer: persisted configuration,
// every assigned region's store reopened from its on-disk directory —
// WAL replay recovers every acknowledged write), and clients route
// from the committed table rows exactly as they were committed. No
// CreateTable or manual assignment is needed; the returned Master
// serves immediately.
//
// Region directories that no table row references — debris of an
// operation that crashed before its commit point, such as a
// half-created table or an uncommitted split's daughters — are swept,
// so a partially applied operation is cleanly absent rather than
// half-recovered.
//
// The HDFS locality mirror is rebuilt from each region's recovered file
// stack, local to the region's assigned server; cross-server locality
// history from before the stop is not preserved (as after any full
// HBase cluster restart, a major compaction restores it).
func OpenCluster(dataDir string) (*Master, error) {
	lm, snapshots, err := openLayout(dataDir)
	if err != nil {
		return nil, err
	}
	nn := hdfs.NewNamenode(lm.Replication())
	m := newMaster(nn, lm)
	fail := func(err error) (*Master, error) {
		for _, rs := range m.servers {
			closeServer(rs)
		}
		lm.Close()
		return nil, err
	}
	// Every member opens its manifest exactly as a worker process would.
	for _, sn := range lm.ServerNames() {
		man, err := lm.Manifest(sn)
		if err != nil {
			return fail(err)
		}
		rs, err := openServer(man, nn)
		if err != nil {
			return fail(fmt.Errorf("hbase: cold start: %w", err))
		}
		m.servers[sn] = rs
	}
	// Clients route from the loaded rows as they stand; every region
	// they name must have opened on a member.
	live := make(map[string]bool) // escaped directory names to keep
	for _, lr := range lm.routes.Load().regions {
		if m.servers[lr.Server] == nil {
			return fail(fmt.Errorf("hbase: cold start: region %q assigned to unknown server %q", lr.Name, lr.Server))
		}
		live[url.PathEscape(lr.Name)] = true
	}

	isMember := func(server string) bool { return m.servers[server] != nil }
	sweepOrphanRegions(dataDir, live)
	sweepOrphanReplicas(dataDir, live, isMember)
	sweepOrphanWALs(dataDir, isMember)
	sweepOrphanSnapshots(dataDir, snapshots)
	return m, nil
}

// sweepOrphanRegions removes region directories under dataDir/regions
// that the catalog does not reference: the durable leftovers of
// operations that crashed before their commit point. Sweeping them is
// what makes "cleanly absent" true — an orphaned daughter directory
// must never be resurrected into a future region's store.
func sweepOrphanRegions(dataDir string, live map[string]bool) {
	dir := filepath.Join(dataDir, "regions")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no regions directory yet: nothing to sweep
	}
	for _, e := range entries {
		if !live[e.Name()] {
			_ = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// sweepOrphanReplicas removes replica directories that no longer back a
// live region: copies for regions a crashed operation abandoned (an
// uncommitted split's daughters), for regions that were failed over to
// new names, and whole per-server trees for servers that left the
// cluster. Partial .tmp copies inside surviving directories are cleaned
// lazily by the replicator's next reconciliation.
func sweepOrphanReplicas(dataDir string, live map[string]bool, isMember func(string) bool) {
	root := filepath.Join(dataDir, "replica")
	servers, err := os.ReadDir(root)
	if err != nil {
		return // no replicas yet
	}
	for _, s := range servers {
		name, uerr := url.PathUnescape(s.Name())
		if uerr != nil || !isMember(name) {
			_ = os.RemoveAll(filepath.Join(root, s.Name()))
			continue
		}
		regions, err := os.ReadDir(filepath.Join(root, s.Name()))
		if err != nil {
			continue
		}
		for _, r := range regions {
			if !live[r.Name()] {
				_ = os.RemoveAll(filepath.Join(root, s.Name(), r.Name()))
			}
		}
	}
}

// sweepOrphanWALs removes shared-log directories of servers the
// catalog no longer lists as members — the durable leftover of a
// RecoverServer or DecommissionServer that crashed between its
// server-row delete and the directory reclaim. A member's WAL is never
// touched: NewRegionServer has already reopened it (and replayed its
// unflushed tail) by the time the sweep runs.
func sweepOrphanWALs(dataDir string, isMember func(string) bool) {
	root := filepath.Join(dataDir, "wal")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return // no shared logs yet
	}
	for _, d := range dirs {
		name, uerr := url.PathUnescape(d.Name())
		if uerr != nil || !isMember(name) {
			_ = os.RemoveAll(filepath.Join(root, d.Name()))
		}
	}
}

// sweepOrphanSnapshots removes snapshot archive directories whose
// manifest row never committed (Master.Snapshot crashed between the
// archive copy and the catalog write): the snapshot is cleanly absent.
func sweepOrphanSnapshots(dataDir string, snapshots map[string]snapshotRow) {
	root := filepath.Join(dataDir, "snapshots")
	tables, err := os.ReadDir(root)
	if err != nil {
		return // no snapshots yet
	}
	for _, td := range tables {
		tn, terr := url.PathUnescape(td.Name())
		names, err := os.ReadDir(filepath.Join(root, td.Name()))
		if terr != nil || err != nil {
			_ = os.RemoveAll(filepath.Join(root, td.Name()))
			continue
		}
		for _, nd := range names {
			sn, serr := url.PathUnescape(nd.Name())
			if serr != nil {
				_ = os.RemoveAll(filepath.Join(root, td.Name(), nd.Name()))
				continue
			}
			if _, ok := snapshots[tn+"/"+sn]; !ok {
				_ = os.RemoveAll(filepath.Join(root, td.Name(), nd.Name()))
			}
		}
	}
}

// HardStop simulates a process kill for tests and the metbench
// -coldstart mode: every server stops serving and its background
// compactor drains, but no store is flushed or cleanly closed — exactly
// the state a real kill leaves on disk, minus the in-process goroutines
// an in-process "kill" must still stop. Recovery of everything
// acknowledged must come from the WALs and SSTables via OpenCluster.
func (m *Master) HardStop() {
	for _, rs := range m.Servers() {
		rs.Shutdown()
	}
	// Release the META store too, so the next owner (OpenCluster here,
	// or a layout-master process over the same DataDir) opens the
	// catalog without sharing a live WAL handle.
	m.layout.Close()
}
