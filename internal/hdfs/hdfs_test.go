package hdfs

import (
	"testing"
	"testing/quick"
)

func newCluster(t *testing.T, nodes int, replication int) *Namenode {
	t.Helper()
	n := NewNamenode(replication)
	for i := 0; i < nodes; i++ {
		n.AddDatanode(nodeName(i))
	}
	return n
}

func nodeName(i int) string { return string(rune('a'+i)) + "-dn" }

func TestWriteFilePlacesLocalFirst(t *testing.T) {
	n := newCluster(t, 3, 2)
	if err := n.WriteFile("region1/f1", 60<<20, "a-dn"); err != nil {
		t.Fatal(err)
	}
	if loc := n.Locality("a-dn", []string{"region1/f1"}); loc != 1 {
		t.Fatalf("writer locality = %v, want 1", loc)
	}
	// Replication 2: exactly one other node holds the data too.
	others := 0
	for _, node := range []string{"b-dn", "c-dn"} {
		if n.Locality(node, []string{"region1/f1"}) == 1 {
			others++
		}
	}
	if others != 1 {
		t.Fatalf("secondary replicas on %d nodes, want 1", others)
	}
}

func TestWriteFileNoDatanodes(t *testing.T) {
	n := NewNamenode(2)
	if err := n.WriteFile("f", 100, "x"); err != ErrNoDatanodes {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiBlockFiles(t *testing.T) {
	n := newCluster(t, 3, 1)
	size := 3*BlockSize + 1000
	if err := n.WriteFile("big", size, "a-dn"); err != nil {
		t.Fatal(err)
	}
	got, err := n.FileSize("big")
	if err != nil || got != size {
		t.Fatalf("size = %d, %v", got, err)
	}
	f := n.files["big"]
	if len(f.blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.blocks))
	}
	if f.blocks[3].size != 1000 {
		t.Fatalf("last block = %d bytes", f.blocks[3].size)
	}
}

func TestRewriteReleasesOldSpace(t *testing.T) {
	n := newCluster(t, 2, 1)
	n.WriteFile("f", 10<<20, "a-dn")
	before := n.UsedBytes("a-dn")
	n.WriteFile("f", 5<<20, "a-dn") // rewrite smaller
	after := n.UsedBytes("a-dn")
	if after >= before {
		t.Fatalf("space not released: %d -> %d", before, after)
	}
	if after != 5<<20 {
		t.Fatalf("used = %d", after)
	}
}

func TestDeleteFile(t *testing.T) {
	n := newCluster(t, 2, 2)
	n.WriteFile("f", 1<<20, "a-dn")
	if err := n.DeleteFile("f"); err != nil {
		t.Fatal(err)
	}
	if n.HasFile("f") {
		t.Fatal("file still present")
	}
	if n.UsedBytes("a-dn") != 0 || n.UsedBytes("b-dn") != 0 {
		t.Fatal("space not freed")
	}
	if err := n.DeleteFile("f"); err != ErrUnknownFile {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestLocalityDropsWhenRegionMoves(t *testing.T) {
	// This is the core mechanism: a region's files written local to rs1;
	// when the region moves to rs2, locality from rs2's perspective is
	// low until a major compaction rewrites the file there.
	n := newCluster(t, 5, 2)
	files := []string{"r/f1", "r/f2"}
	for _, f := range files {
		n.WriteFile(f, 60<<20, "a-dn") // single-block files
	}
	if loc := n.Locality("a-dn", files); loc != 1 {
		t.Fatalf("origin locality = %v", loc)
	}
	// Secondary replicas land on two distinct nodes; the remaining two
	// nodes hold nothing and see zero locality.
	low := 0
	for _, node := range n.Datanodes() {
		if n.Locality(node, files) == 0 {
			low++
		}
	}
	if low != 2 { // 5 nodes - primary - 2 secondaries
		t.Fatalf("%d nodes with zero locality, want 2", low)
	}
	// "Major compact" = rewrite local to the new server.
	for _, f := range files {
		n.WriteFile(f, 60<<20, "c-dn")
	}
	if loc := n.Locality("c-dn", files); loc != 1 {
		t.Fatalf("post-compact locality = %v", loc)
	}
}

func TestLocalityPartial(t *testing.T) {
	n := newCluster(t, 4, 1)
	n.WriteFile("f1", 10<<20, "a-dn")
	n.WriteFile("f2", 30<<20, "b-dn")
	loc := n.Locality("a-dn", []string{"f1", "f2"})
	if loc != 0.25 {
		t.Fatalf("locality = %v, want 0.25", loc)
	}
}

func TestLocalityEmptyAndMissing(t *testing.T) {
	n := newCluster(t, 2, 1)
	if loc := n.Locality("a-dn", nil); loc != 1 {
		t.Fatalf("empty locality = %v, want 1", loc)
	}
	if loc := n.Locality("a-dn", []string{"missing"}); loc != 1 {
		t.Fatalf("missing-file locality = %v, want 1", loc)
	}
}

func TestRemoveDatanode(t *testing.T) {
	n := newCluster(t, 3, 2)
	n.WriteFile("f", 64<<20, "a-dn")
	n.RemoveDatanode("a-dn")
	if len(n.Datanodes()) != 2 {
		t.Fatalf("live = %v", n.Datanodes())
	}
}

func TestReviveDatanode(t *testing.T) {
	n := newCluster(t, 2, 2)
	n.WriteFile("f", 1<<20, "a-dn")
	n.RemoveDatanode("b-dn")
	n.AddDatanode("b-dn") // revive
	if len(n.Datanodes()) != 2 {
		t.Fatal("revive failed")
	}
}

func TestFilesSorted(t *testing.T) {
	n := newCluster(t, 1, 1)
	n.WriteFile("zz", 1, "a-dn")
	n.WriteFile("aa", 1, "a-dn")
	files := n.Files()
	if len(files) != 2 || files[0] != "aa" {
		t.Fatalf("files = %v", files)
	}
}

func TestTotalBytes(t *testing.T) {
	n := newCluster(t, 2, 2)
	n.WriteFile("f1", 100, "a-dn")
	n.WriteFile("f2", 200, "b-dn")
	if n.TotalBytes() != 300 {
		t.Fatalf("total = %d", n.TotalBytes())
	}
}

func TestReplicationClamped(t *testing.T) {
	n := NewNamenode(0)
	if n.Replication() != 1 {
		t.Fatalf("replication = %d", n.Replication())
	}
}

// Property: used bytes across datanodes equals logical bytes times actual
// replica count, for any sequence of writes.
func TestPropertySpaceAccounting(t *testing.T) {
	err := quick.Check(func(sizes []uint16) bool {
		n := NewNamenode(2)
		for i := 0; i < 4; i++ {
			n.AddDatanode(nodeName(i))
		}
		var logical int64
		for i, s := range sizes {
			size := int64(s) + 1
			n.WriteFile(string(rune('f'+i%20))+"x", size, "a-dn")
		}
		// Rewrites replace; count final files only.
		for _, f := range n.Files() {
			sz, _ := n.FileSize(f)
			logical += sz
		}
		var used int64
		for _, dn := range n.Datanodes() {
			used += n.UsedBytes(dn)
		}
		return used == logical*2
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlacementBalanced(t *testing.T) {
	// Secondary replicas spread across the least-used nodes.
	n := newCluster(t, 4, 2)
	for i := 0; i < 12; i++ {
		n.WriteFile(string(rune('a'+i))+"-file", 10<<20, "a-dn")
	}
	// a-dn has all primaries; secondaries should spread over b,c,d evenly.
	b, c, d := n.UsedBytes("b-dn"), n.UsedBytes("c-dn"), n.UsedBytes("d-dn")
	if b != c || c != d {
		t.Fatalf("unbalanced secondaries: %d %d %d", b, c, d)
	}
}
