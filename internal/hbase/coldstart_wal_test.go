package hbase

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// walSegmentFiles counts the segment files in one server's shared-log
// directory — the reopen-then-stat-the-wal-dir probe for the cold-start
// pinning bug.
func walSegmentFiles(t *testing.T, dataDir, server string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(ServerWALDir(dataDir, server), "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(paths)
}

// TestColdStartReclaimsMovedAwayRegionsWALRecords: a region that moved
// to another server leaves its (already flushed) records in the old
// host's shared log. After a cold start the region never re-registers
// there, so its flush clock is stuck at zero and — before the open-time
// reclaim — those records pinned the old host's segments forever, no
// matter how often the regions still living there flushed.
func TestColdStartReclaimsMovedAwayRegionsWALRecords(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 2, dir, durableConfig(dir))
	if _, err := m.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := m.Table("t")
	var moved, staying *Region
	for _, r := range tbl.Regions() {
		if r.StartKey() == "" {
			moved = r
		} else {
			staying = r
		}
	}
	src, _ := m.HostOf(moved.Name())
	// Co-locate both regions on src so its log interleaves records from
	// both; then the move leaves the mixed segment behind.
	if host, _ := m.HostOf(staying.Name()); host != src {
		if err := m.MoveRegion(staying.Name(), src); err != nil {
			t.Fatal(err)
		}
	}
	// Small volume: nothing flushes, so both regions' records share
	// src's active segment.
	for i := 0; i < 40; i++ {
		if err := c.Put("t", fmt.Sprintf("a%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("t", fmt.Sprintf("z%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	dst := "rs0"
	if src == "rs0" {
		dst = "rs1"
	}
	// The move flushes the region and truncates its records in src's
	// log — but the segment survives, still holding staying's live
	// records alongside moved's now-dead ones.
	if err := m.MoveRegion(moved.Name(), dst); err != nil {
		t.Fatal(err)
	}
	m.HardStop()

	m2, err := OpenCluster(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.HardStop)
	rs, err := m2.Server(src)
	if err != nil {
		t.Fatalf("server %s not revived: %v", src, err)
	}
	// The open-time reclaim must have voided the moved-away region's
	// records: nothing of it may remain shippable from src's log.
	if tail, _ := rs.SharedWAL().TailFrom(moved.Name(), 0, math.MaxUint64); len(tail) != 0 {
		t.Fatalf("moved-away region still in %s's shippable tail: %d records", src, len(tail))
	}
	// Flush the region still hosted on src. With the orphan dropped this
	// covers everything in the old segments, so the sweep leaves exactly
	// the fresh active segment; with the orphan pinning them the old
	// segment survives every flush cycle.
	tbl2, _ := m2.Table("t")
	for _, r := range tbl2.Regions() {
		if r.Name() == staying.Name() {
			if err := r.Store().Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := walSegmentFiles(t, dir, src); n != 1 {
		t.Fatalf("%s's wal dir holds %d segment files after reopen+flush, want 1 (orphan records pinning old segments)", src, n)
	}
	// The reclaim must not have touched live data: every row reads back.
	for i := 0; i < 40; i++ {
		for _, k := range []string{fmt.Sprintf("a%04d", i), fmt.Sprintf("z%04d", i)} {
			if v, err := c2Get(m2, "t", k); err != nil || string(v) != "v" {
				t.Fatalf("%s after cold start: %q, %v", k, v, err)
			}
		}
	}
}

// c2Get reads through a fresh client so routing reflects the reopened
// cluster.
func c2Get(m *Master, table, key string) ([]byte, error) {
	return NewClient(m).Get(table, key)
}
