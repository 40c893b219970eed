package hbase

import (
	"errors"
	"fmt"
	"testing"

	"met/internal/hdfs"
	"met/internal/kv"
)

// newTestServer builds a standalone running server with its own namenode.
func newTestServer(t *testing.T, name string) *RegionServer {
	t.Helper()
	rs, err := NewRegionServer(name, DefaultServerConfig(), hdfs.NewNamenode(2))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// openRegion creates and opens a region on rs for the given range.
func openRegion(t *testing.T, rs *RegionServer, table, start, end string) *Region {
	t.Helper()
	r, err := newRegionNamed(regionName(table, start), table, start, end, kv.Config{MemstoreFlushBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rs.OpenRegion(r)
	return r
}

// TestLookupSortedIndex drives the binary-search router through the
// boundary cases: exact start keys, keys inside and between ranges,
// unbounded end keys, and keys before the first hosted region.
func TestLookupSortedIndex(t *testing.T) {
	rs := newTestServer(t, "rs0")
	// Hosted: [b,f), [f,m), [t,"") — a hole at [m,t).
	openRegion(t, rs, "t1", "b", "f")
	openRegion(t, rs, "t1", "f", "m")
	openRegion(t, rs, "t1", "t", "")

	cases := []struct {
		key    string
		want   string // expected region start key; "" means a routing error
		hosted bool
	}{
		{key: "b", want: "b", hosted: true}, // exact start boundary
		{key: "c", want: "b", hosted: true}, // interior
		{key: "ezzz", want: "b", hosted: true},
		{key: "f", want: "f", hosted: true}, // boundary belongs to the upper region
		{key: "lzzz", want: "f", hosted: true},
		{key: "m", hosted: false}, // hole between hosted ranges
		{key: "s", hosted: false},
		{key: "t", want: "t", hosted: true},    // start of the unbounded tail
		{key: "zzzz", want: "t", hosted: true}, // empty EndKey = unbounded
		{key: "a", hosted: false},              // before every hosted region
		{key: "", hosted: false},
	}
	for _, tc := range cases {
		r, err := rs.lookup("t1", tc.key)
		if tc.hosted {
			if err != nil {
				t.Errorf("lookup(%q): unexpected error %v", tc.key, err)
				continue
			}
			if r.StartKey() != tc.want {
				t.Errorf("lookup(%q) routed to [%q,%q), want start %q", tc.key, r.StartKey(), r.EndKey(), tc.want)
			}
			continue
		}
		if !errors.Is(err, ErrWrongRegionServer) {
			t.Errorf("lookup(%q) = %v, want ErrWrongRegionServer", tc.key, err)
		}
	}
}

// TestLookupFullKeyspace checks the common one-region-per-table layout:
// a single ["", "") region matches any key, including the empty one.
func TestLookupFullKeyspace(t *testing.T) {
	rs := newTestServer(t, "rs0")
	openRegion(t, rs, "t1", "", "")
	for _, key := range []string{"", "a", "zzzz"} {
		if _, err := rs.lookup("t1", key); err != nil {
			t.Errorf("lookup(%q) on full-keyspace region: %v", key, err)
		}
	}
}

// TestLookupMultiTable verifies tables route independently: identical
// key ranges on one server never cross tables, and unknown tables fail.
func TestLookupMultiTable(t *testing.T) {
	rs := newTestServer(t, "rs0")
	ra := openRegion(t, rs, "ta", "", "m")
	rb := openRegion(t, rs, "tb", "", "")
	openRegion(t, rs, "ta", "m", "")

	r, err := rs.lookup("ta", "c")
	if err != nil || r != ra {
		t.Fatalf("lookup(ta, c) = %v, %v, want region %s", r, err, ra.Name())
	}
	r, err = rs.lookup("tb", "c")
	if err != nil || r != rb {
		t.Fatalf("lookup(tb, c) = %v, %v, want region %s", r, err, rb.Name())
	}
	if r, err = rs.lookup("ta", "x"); err != nil || r.StartKey() != "m" {
		t.Fatalf("lookup(ta, x) = %v, %v", r, err)
	}
	if _, err := rs.lookup("ghost", "c"); !errors.Is(err, ErrWrongRegionServer) {
		t.Fatalf("unknown table lookup = %v", err)
	}
}

// TestLookupStopped verifies a stopped server rejects routing entirely.
func TestLookupStopped(t *testing.T) {
	rs := newTestServer(t, "rs0")
	openRegion(t, rs, "t1", "", "")
	rs.Stop()
	if _, err := rs.lookup("t1", "k"); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("stopped lookup = %v", err)
	}
	rs.Start()
	if _, err := rs.lookup("t1", "k"); err != nil {
		t.Fatalf("restarted lookup = %v", err)
	}
}

// TestLookupAfterSplitAndMove walks the index through the full region
// lifecycle: create, split (daughters replace the parent in the index),
// move (the index forgets the region; the destination learns it).
func TestLookupAfterSplitAndMove(t *testing.T) {
	m, c := newCluster(t, 2)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.Put("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := m.Table("t")
	parent := tbl.Regions()[0].Name()
	host, _ := m.HostOf(parent)
	rs, _ := m.Server(host)
	if err := m.SplitRegion(parent); err != nil {
		t.Fatal(err)
	}
	tbl, _ = m.Table("t") // a snapshot: re-fetch after the split
	if n := len(tbl.Regions()); n != 2 {
		t.Fatalf("regions after split = %d", n)
	}
	// Both daughters route on the same host; the parent name is gone.
	lo, hi := tbl.Regions()[0], tbl.Regions()[1]
	for _, probe := range []struct {
		key  string
		want *Region
	}{{lo.StartKey(), lo}, {hi.StartKey(), hi}, {"k199", hi}} {
		got, err := rs.lookup("t", probe.key)
		if err != nil || got != probe.want {
			t.Fatalf("lookup(%q) after split = %v, %v, want %s", probe.key, got, err, probe.want.Name())
		}
	}
	// Move the upper daughter to the other server: source must now
	// reject its keys, destination must serve them.
	var dst string
	for _, s := range m.Servers() {
		if s.Name() != host {
			dst = s.Name()
		}
	}
	if err := m.MoveRegion(hi.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.lookup("t", hi.StartKey()); !errors.Is(err, ErrWrongRegionServer) {
		t.Fatalf("source still routes moved region: %v", err)
	}
	dstRS, _ := m.Server(dst)
	if got, err := dstRS.lookup("t", hi.StartKey()); err != nil || got != hi {
		t.Fatalf("destination lookup = %v, %v", got, err)
	}
	// End-to-end through the client: all keys still readable.
	for _, k := range []string{"k000", "k100", "k199"} {
		if _, err := c.Get("t", k); err != nil {
			t.Fatalf("Get(%s) after split+move: %v", k, err)
		}
	}
}

// TestMirrorReconcilesAtCompaction deterministically pins the fix for
// the old flush-vs-MajorCompact byte double-count: the mirror is diffed
// against the engine's real file stack at swap time, so a flush that
// raced the compaction (its file folded into the compacted output) is
// neither orphaned in the namenode nor counted twice.
func TestMirrorReconcilesAtCompaction(t *testing.T) {
	rs := newTestServer(t, "rs0")
	r := openRegion(t, rs, "t1", "", "")
	s := r.Store()
	put := func(k string) {
		t.Helper()
		if err := s.Put(k, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	mirrorTotal := func() int64 {
		t.Helper()
		var total int64
		for _, f := range r.Files() {
			sz, err := rs.namenode.FileSize(f)
			if err != nil {
				t.Fatalf("region file %s missing from namenode: %v", f, err)
			}
			total += sz
		}
		return total
	}
	engineTotal := func() int64 {
		var total int64
		for _, fi := range s.FileInfos() {
			total += fi.Bytes
		}
		return total
	}

	// Two flushed-and-mirrored files.
	put("a")
	s.Flush()
	rs.mirrorSync(r)
	put("b")
	s.Flush()
	rs.mirrorSync(r)
	if len(r.Files()) != 2 || mirrorTotal() != engineTotal() {
		t.Fatalf("baseline mirror broken: files=%v total=%d engine=%d", r.Files(), mirrorTotal(), engineTotal())
	}
	// A third flush lands but its mirror "races" the compaction: the
	// compaction runs before mirrorSync sees the new file.
	put("c")
	s.Flush()
	if err := s.Compact(true); err != nil {
		t.Fatal(err)
	}
	adds, removes, ok := r.mirrorActions(s, true)
	if !ok {
		t.Fatal("mirrorActions rejected the tracked store")
	}
	for _, a := range adds {
		if err := rs.namenode.WriteFile(a.name, a.bytes, rs.name); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range removes {
		_ = rs.namenode.DeleteFile(f)
	}
	// Exactly one file — the compacted output — sized from the engine;
	// no double count, no orphan.
	if len(r.Files()) != 1 {
		t.Fatalf("files after compaction = %v, want exactly the compacted output", r.Files())
	}
	if mirrorTotal() != engineTotal() {
		t.Fatalf("mirror bytes %d != engine bytes %d (double count)", mirrorTotal(), engineTotal())
	}
	for _, f := range rs.namenode.Files() {
		if f != r.Files()[0] {
			t.Fatalf("namenode holds unreferenced file %s (orphan)", f)
		}
	}
}
