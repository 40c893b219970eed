package hbase

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"met/internal/hdfs"
)

// durableConfig is a small-heap durable server config: tiny memstore so
// flushes (and therefore SSTables) happen at test data volumes.
func durableConfig(dataDir string) ServerConfig {
	return ServerConfig{
		HeapBytes: 1 << 20, BlockCacheFraction: 0.39, MemstoreFraction: 0.26,
		BlockBytes: 4 << 10, Handlers: 10, DataDir: dataDir,
	}
}

func newDurableCluster(t *testing.T, n int, dataDir string) (*Master, *Client) {
	t.Helper()
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	for i := 0; i < n; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), durableConfig(dataDir)); err != nil {
			t.Fatal(err)
		}
	}
	// Tail streaming keeps the replicators busy after the last Put;
	// shut the servers down before the temp dir is reclaimed.
	t.Cleanup(m.HardStop)
	return m, NewClient(m)
}

func TestDurableServerRestartRecoversFromDisk(t *testing.T) {
	dir := t.TempDir()
	m, c := newDurableCluster(t, 1, dir)
	rs, _ := m.Server("rs0")
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	const n = 400
	mkVal := func(i int) []byte {
		v := make([]byte, 1024)
		copy(v, fmt.Sprintf("v%d", i))
		return v
	}
	for i := 0; i < n; i++ {
		if err := c.Put("t", fmt.Sprintf("k%04d", i), mkVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := m.Table("t")
	region := tbl.Regions()[0]
	if region.Store().NumFiles() == 0 {
		t.Fatal("no SSTables flushed; test volume too small")
	}
	filesBefore := region.Store().NumFiles()

	// Restart = close the store, reopen from disk (not a memory copy).
	if err := rs.Restart(durableConfig(dir)); err != nil {
		t.Fatal(err)
	}
	fresh := region.Store()
	if fresh.NumFiles() != filesBefore {
		t.Fatalf("restart recovered %d files, had %d — not a disk recovery", fresh.NumFiles(), filesBefore)
	}
	for i := 0; i < n; i++ {
		v, err := c.Get("t", fmt.Sprintf("k%04d", i))
		if err != nil || string(v) != string(mkVal(i)) {
			t.Fatalf("k%04d after restart: %.20q, %v", i, v, err)
		}
	}
	// Writes keep working and shadow recovered data.
	if err := c.Put("t", "k0000", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get("t", "k0000"); string(v) != "new" {
		t.Fatalf("post-restart overwrite lost: %q", v)
	}
}

// TestRestartRejectsDataDirChange checks that a restart cannot move a
// server to another data directory, or between the memory and durable
// backends: the restart is refused before the server stops, and it
// keeps serving on its old configuration.
func TestRestartRejectsDataDirChange(t *testing.T) {
	dir := t.TempDir()
	m, c := newDurableCluster(t, 1, dir)
	rs, _ := m.Server("rs0")
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ServerConfig{durableConfig(t.TempDir()), durableConfig("")} {
		if err := rs.Restart(cfg); err == nil {
			t.Fatalf("restart onto data dir %q accepted", cfg.DataDir)
		}
	}
	if got := rs.Config().DataDir; got != dir {
		t.Fatalf("data dir = %q after refused restarts, want %q", got, dir)
	}
	if rs.Restarts() != 0 {
		t.Fatalf("restarts = %d after refused restarts", rs.Restarts())
	}
	if v, err := c.Get("t", "k"); err != nil || string(v) != "v" {
		t.Fatalf("get after refused restarts = %q, %v", v, err)
	}
	if err := c.Put("t", "k2", []byte("v2")); err != nil {
		t.Fatalf("put after refused restarts: %v", err)
	}

	// A memory server cannot become durable either.
	mm, mc := newCluster(t, 1)
	mrs, _ := mm.Server("rs0")
	if _, err := mm.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := mrs.Restart(durableConfig(t.TempDir())); err == nil {
		t.Fatal("memory server restarted onto a data dir")
	}
	if err := mc.Put("t", "k", []byte("v")); err != nil {
		t.Fatalf("memory server after refused restart: %v", err)
	}
}

func TestDurableRegionMoveKeepsData(t *testing.T) {
	dir := t.TempDir()
	m, c := newDurableCluster(t, 2, dir)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.Put("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := m.Table("t")
	region := tbl.Regions()[0]
	src, _ := m.HostOf(region.Name())
	dst := "rs0"
	if src == "rs0" {
		dst = "rs1"
	}
	if err := m.MoveRegion(region.Name(), dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := c.Get("t", fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatalf("k%04d after move: %v", i, err)
		}
	}
	// The region directory is keyed by region name, so a restart on the
	// new host recovers the moved region's data from disk.
	dstRS, _ := m.Server(dst)
	if err := dstRS.Restart(durableConfig(dir)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := c.Get("t", fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatalf("k%04d after move+restart: %v", i, err)
		}
	}
}

func TestDurableSplitReclaimsParentDir(t *testing.T) {
	dir := t.TempDir()
	m, c := newDurableCluster(t, 1, dir)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := c.Put("t", fmt.Sprintf("k%04d", i), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := m.Table("t")
	parent := tbl.Regions()[0]
	parentDir := regionDataDir(dir, parent.Name())
	if _, err := os.Stat(parentDir); err != nil {
		t.Fatalf("parent region dir missing before split: %v", err)
	}
	if err := m.SplitRegion(parent.Name()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(parentDir); !os.IsNotExist(err) {
		t.Fatal("parent region dir not reclaimed after split")
	}
	// All keys live in the daughters, durably: their dirs exist and
	// serve after a restart.
	rs, _ := m.Server("rs0")
	if err := rs.Restart(durableConfig(dir)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := c.Get("t", fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatalf("k%04d after split+restart: %v", i, err)
		}
	}
}

func TestDurableMirrorSizesMatchDisk(t *testing.T) {
	dir := t.TempDir()
	m, c := newDurableCluster(t, 1, dir)
	rs, _ := m.Server("rs0")
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := c.Put("t", fmt.Sprintf("k%04d", i), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := m.Table("t")
	region := tbl.Regions()[0]
	if len(region.Files()) == 0 {
		t.Fatal("no mirrored files")
	}
	// Sum of namenode sizes == sum of real on-disk SSTable sizes.
	var mirrored int64
	for _, f := range region.Files() {
		sz, err := rs.namenode.FileSize(f)
		if err != nil {
			t.Fatalf("mirror file %s: %v", f, err)
		}
		mirrored += sz
	}
	var onDisk int64
	ssts, _ := filepath.Glob(filepath.Join(regionDataDir(dir, region.Name()), "sst-*.sst"))
	for _, p := range ssts {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += st.Size()
	}
	if onDisk == 0 || mirrored != onDisk {
		t.Fatalf("mirrored bytes %d != real on-disk bytes %d", mirrored, onDisk)
	}
}
