package hbase

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"met/internal/hdfs"
	"met/internal/kv"
	"met/internal/testutil"
)

// newCatalogCluster builds a durable cluster whose master writes the
// META catalog under dataDir.
func newCatalogCluster(t *testing.T, n int, dataDir string, cfg ServerConfig) (*Master, *Client) {
	t.Helper()
	m, err := NewDurableMaster(hdfs.NewNamenode(2), dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Replicators keep shipping after the last Put; stop the servers
	// before the temp dir is reclaimed or RemoveAll races a tail ship.
	// (Tests that HardStop themselves are fine: Shutdown is idempotent.)
	t.Cleanup(m.HardStop)
	return m, NewClient(m)
}

// regionDirNames lists the escaped region-directory names currently on
// disk under dataDir/regions.
func regionDirNames(t *testing.T, dataDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "regions"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

// crashAt runs op with the master's crash hook armed at point via the
// shared fault harness (met/internal/testutil); op must actually reach
// the point (and "die" there), or the test fails.
func crashAt(t *testing.T, m *Master, point string, op func()) {
	t.Helper()
	inj := testutil.NewInjector()
	m.layout.crashHook = inj.Hook()
	defer func() { m.layout.crashHook = nil }()
	testutil.CrashAt(t, inj, point, op)
}

// TestColdStartRecoversWholeCluster is the PR's acceptance criterion:
// acknowledged rows across two tables and three servers, one region
// moved, the whole cluster hard-stopped — then OpenCluster(dataDir)
// with no CreateTable or manual assignment must serve every row through
// normal client routing, reproduce Tables() and Assignment() exactly,
// and compact the moved region on its destination server's pool.
func TestColdStartRecoversWholeCluster(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Compaction = CompactionConfig{MaxStoreFiles: 3, StallStoreFiles: 10}
	m, c := newCatalogCluster(t, 3, dir, cfg)
	if _, err := m.CreateTable("users", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("orders", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	acked := map[string]map[string]string{"users": {}, "orders": {}}
	write := func(tn string, lo, hi int) {
		for i := lo; i < hi; i++ {
			k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
			v := fmt.Sprintf("%s/%s/v%d", tn, k, i)
			if err := c.Put(tn, k, []byte(v)); err != nil {
				t.Fatalf("put %s/%s: %v", tn, k, err)
			}
			acked[tn][k] = v
		}
	}
	write("users", 0, 300)
	write("orders", 0, 300)

	// Move one users region to a server that does not host it.
	tbl, _ := m.Table("users")
	moved := tbl.Regions()[0].Name()
	src, _ := m.HostOf(moved)
	var dst string
	for _, rs := range m.Servers() {
		if rs.Name() != src {
			dst = rs.Name()
			break
		}
	}
	if err := m.MoveRegion(moved, dst); err != nil {
		t.Fatal(err)
	}
	write("users", 300, 450)
	write("orders", 300, 450)

	preTables := m.Tables()
	preAssign := m.Assignment()
	hosts := map[string]bool{}
	for _, s := range preAssign {
		hosts[s] = true
	}
	if len(hosts) < 3 {
		t.Fatalf("acceptance setup: regions span %d servers, want 3", len(hosts))
	}
	m.HardStop()

	m2, err := OpenCluster(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.HardStop)
	if got := m2.Tables(); !reflect.DeepEqual(got, preTables) {
		t.Fatalf("tables after cold start = %v, want %v", got, preTables)
	}
	if got := m2.Assignment(); !reflect.DeepEqual(got, preAssign) {
		t.Fatalf("assignment after cold start = %v, want %v", got, preAssign)
	}
	c2 := NewClient(m2)
	for tn, rows := range acked {
		for k, want := range rows {
			v, err := c2.Get(tn, k)
			if err != nil || string(v) != want {
				t.Fatalf("acknowledged %s/%s lost across cold start: %q, %v", tn, k, v, err)
			}
		}
	}
	// The moved region is hosted — and really compacts — on its
	// destination. Flush first so the recovered memstore becomes an
	// SSTable and the major compaction does actual I/O rather than an
	// empty-store no-op.
	dstRS, err := m2.Server(dst)
	if err != nil {
		t.Fatal(err)
	}
	srcRS, err := m2.Server(src)
	if err != nil {
		t.Fatal(err)
	}
	var movedStore *kv.Store
	for _, r := range dstRS.Regions() {
		if r.Name() == moved {
			movedStore = r.Store()
		}
	}
	if movedStore == nil {
		t.Fatalf("moved region %s not hosted on destination %s after cold start", moved, dst)
	}
	if err := movedStore.Flush(); err != nil {
		t.Fatal(err)
	}
	if movedStore.NumFiles() == 0 {
		t.Fatalf("moved region %s recovered no data to compact", moved)
	}
	srcBefore := srcRS.CompactionStats().Compactions
	dstBefore := dstRS.CompactionStats()
	if _, err := dstRS.MajorCompact(moved); err != nil {
		t.Fatalf("moved region not serviced by destination after cold start: %v", err)
	}
	dstAfter := dstRS.CompactionStats()
	if dstAfter.Compactions <= dstBefore.Compactions || dstAfter.BytesIn <= dstBefore.BytesIn {
		t.Fatalf("destination pool did not really compact the moved region: %+v -> %+v", dstBefore, dstAfter)
	}
	if after := srcRS.CompactionStats().Compactions; after != srcBefore {
		t.Fatalf("source pool serviced the moved region: %d -> %d", srcBefore, after)
	}
}

// TestColdStartCrashPoints hard-kills each mutating operation between
// its region work and its catalog commit (and, for splits, just after
// the commit), then cold-starts: the layout and every acknowledged
// write must recover, with the interrupted operation either fully
// applied or cleanly absent — never half-applied, never leaving orphan
// region directories behind.
func TestColdStartCrashPoints(t *testing.T) {
	type fixture struct {
		m   *Master
		c   *Client
		dir string
	}
	setup := func(t *testing.T) fixture {
		dir := t.TempDir()
		m, c := newCatalogCluster(t, 2, dir, durableConfig(dir))
		if _, err := m.CreateTable("t", []string{"m"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := c.Put("t", fmt.Sprintf("k%05d", i), []byte("0123456789abcdef")); err != nil {
				t.Fatal(err)
			}
		}
		return fixture{m: m, c: c, dir: dir}
	}
	verifyData := func(t *testing.T, m2 *Master) {
		c2 := NewClient(m2)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%05d", i)
			if v, err := c2.Get("t", k); err != nil || string(v) != "0123456789abcdef" {
				t.Fatalf("acknowledged %s lost: %q, %v", k, v, err)
			}
		}
	}
	reopen := func(t *testing.T, f fixture) *Master {
		f.m.HardStop()
		m2, err := OpenCluster(f.dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m2.HardStop)
		return m2
	}

	t.Run("createtable-uncommitted", func(t *testing.T) {
		f := setup(t)
		crashAt(t, f.m, "createtable.regions-open", func() { f.m.CreateTable("t2", []string{"g"}) })
		m2 := reopen(t, f)
		if got := m2.Tables(); !reflect.DeepEqual(got, []string{"t"}) {
			t.Fatalf("half-created table surfaced: %v", got)
		}
		for _, d := range regionDirNames(t, f.dir) {
			if strings.HasPrefix(d, url.PathEscape("t2,")) {
				t.Fatalf("orphan directory %q survived the sweep", d)
			}
		}
		verifyData(t, m2)
		// The name is free again: creating t2 on the recovered cluster works.
		if _, err := m2.CreateTable("t2", []string{"g"}); err != nil {
			t.Fatalf("recreate after crashed create: %v", err)
		}
	})

	t.Run("moveregion-uncommitted", func(t *testing.T) {
		f := setup(t)
		tbl, _ := f.m.Table("t")
		rn := tbl.Regions()[0].Name()
		src, _ := f.m.HostOf(rn)
		dst := "rs0"
		if src == dst {
			dst = "rs1"
		}
		crashAt(t, f.m, "moveregion.moved", func() { f.m.MoveRegion(rn, dst) })
		m2 := reopen(t, f)
		if host, _ := m2.HostOf(rn); host != src {
			t.Fatalf("uncommitted move half-applied: host %q, want %q", host, src)
		}
		verifyData(t, m2)
	})

	t.Run("split-uncommitted", func(t *testing.T) {
		f := setup(t)
		tbl, _ := f.m.Table("t")
		parent := tbl.Regions()[0].Name()
		crashAt(t, f.m, "split.daughters-ready", func() { f.m.SplitRegion(parent) })
		m2 := reopen(t, f)
		t2, err := m2.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		regions := t2.Regions()
		if len(regions) != 2 || regions[0].Name() != parent {
			t.Fatalf("uncommitted split half-applied: %d regions", len(regions))
		}
		// Daughter directories (minted with a ".gen" suffix) were swept.
		for _, d := range regionDirNames(t, f.dir) {
			un, _ := url.PathUnescape(d)
			if strings.Contains(un, ".") {
				t.Fatalf("orphan daughter directory %q survived the sweep", d)
			}
		}
		verifyData(t, m2)
		// splitSeq was persisted before the daughters existed, so a
		// retried split can never collide with the crashed attempt's
		// names or directories.
		if err := m2.SplitRegion(parent); err != nil {
			t.Fatalf("split retry after crashed split: %v", err)
		}
		verifyData(t, m2)
	})

	t.Run("split-committed", func(t *testing.T) {
		f := setup(t)
		tbl, _ := f.m.Table("t")
		parent := tbl.Regions()[0].Name()
		crashAt(t, f.m, "split.committed", func() { f.m.SplitRegion(parent) })
		m2 := reopen(t, f)
		t2, err := m2.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if n := len(t2.Regions()); n != 3 {
			t.Fatalf("committed split lost: %d regions, want 3 (two daughters + sibling)", n)
		}
		if _, ok := m2.HostOf(parent); ok {
			t.Fatalf("committed split: parent %q still assigned", parent)
		}
		// The parent's directory was the orphan this time.
		for _, d := range regionDirNames(t, f.dir) {
			if d == url.PathEscape(parent) {
				t.Fatalf("parent directory %q survived the sweep after committed split", d)
			}
		}
		verifyData(t, m2)
	})

	t.Run("addserver-uncommitted", func(t *testing.T) {
		f := setup(t)
		crashAt(t, f.m, "addserver.registered", func() { f.m.AddServer("rs9", durableConfig(f.dir)) })
		m2 := reopen(t, f)
		if _, err := m2.Server("rs9"); !errors.Is(err, ErrUnknownServer) {
			t.Fatalf("uncommitted server surfaced after cold start: %v", err)
		}
		verifyData(t, m2)
	})

	t.Run("decommission-drained", func(t *testing.T) {
		f := setup(t)
		crashAt(t, f.m, "decommission.drained", func() { f.m.DecommissionServer("rs1") })
		m2 := reopen(t, f)
		// The drain committed region by region; the membership row was
		// never deleted — the server comes back empty, the regions stay
		// where the drain put them.
		rs1, err := m2.Server("rs1")
		if err != nil {
			t.Fatalf("mid-decommission server vanished: %v", err)
		}
		if n := rs1.NumRegions(); n != 0 {
			t.Fatalf("drained server still hosts %d regions", n)
		}
		for r, s := range m2.Assignment() {
			if s == "rs1" {
				t.Fatalf("region %q still assigned to drained server", r)
			}
		}
		verifyData(t, m2)
	})
}

// TestNewDurableMasterRefusesExistingCluster: building a fresh cluster
// over a data directory that already holds a committed layout would
// interleave two layouts in one catalog; the constructor must refuse
// and point at OpenCluster.
func TestNewDurableMasterRefusesExistingCluster(t *testing.T) {
	dir := t.TempDir()
	m, _ := newCatalogCluster(t, 1, dir, durableConfig(dir))
	m.HardStop()
	if _, err := NewDurableMaster(hdfs.NewNamenode(2), dir); err == nil {
		t.Fatal("NewDurableMaster over an existing cluster succeeded")
	}
	if m2, err := OpenCluster(dir); err != nil {
		t.Fatalf("OpenCluster over the same directory: %v", err)
	} else {
		m2.HardStop()
	}
}

// TestColdStartRecoversReprofiledServer: a reprofile issued through the
// master (the Actuator's path) must survive a cold start — the server
// comes back with the new configuration, not the one it was added with.
func TestColdStartRecoversReprofiledServer(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 2, dir, durableConfig(dir))
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Put("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	reprofiled := durableConfig(dir)
	reprofiled.BlockBytes = 8 << 10
	if err := m.RestartServer("rs0", reprofiled); err != nil {
		t.Fatal(err)
	}
	m.HardStop()
	m2, err := OpenCluster(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.HardStop)
	rs0, err := m2.Server("rs0")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs0.Config(); got != reprofiled {
		t.Fatalf("cold start lost the reprofile: %v, want %v", got, reprofiled)
	}
	rs1, err := m2.Server("rs1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs1.Config(); got != durableConfig(dir) {
		t.Fatalf("untouched server's profile drifted: %v", got)
	}
	c2 := NewClient(m2)
	for i := 0; i < 50; i++ {
		if _, err := c2.Get("t", fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatalf("k%03d after reprofile+coldstart: %v", i, err)
		}
	}
}

// TestCreateTablePartialFailureUnwinds: a mid-loop region-open failure
// must close and unassign every already-opened region and reclaim
// their directories — no orphaned, unreachable regions — and leave the
// name free for a retry.
func TestCreateTablePartialFailureUnwinds(t *testing.T) {
	dir := t.TempDir()
	m, _ := newCatalogCluster(t, 2, dir, durableConfig(dir))
	// Block the LAST region's directory with a regular file: regions
	// "t," and "t,g" open first and must be unwound when "t,p" fails.
	blocker := regionDataDir(dir, regionName("t", "p"))
	if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("t", []string{"g", "p"}); err == nil {
		t.Fatal("CreateTable succeeded over an unopenable region directory")
	}
	if got := len(m.Assignment()); got != 0 {
		t.Fatalf("failed create left %d assignments", got)
	}
	if got := m.Tables(); len(got) != 0 {
		t.Fatalf("failed create left tables %v", got)
	}
	for _, rs := range m.Servers() {
		if n := rs.NumRegions(); n != 0 {
			t.Fatalf("failed create left %d regions hosted on %s", n, rs.Name())
		}
	}
	if dirs := regionDirNames(t, dir); len(dirs) != 1 || dirs[0] != url.PathEscape(regionName("t", "p")) {
		t.Fatalf("failed create left directories %v (want only the blocker)", dirs)
	}
	// The reservation was released and the directories reclaimed:
	// removing the blocker, the same name creates cleanly.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	tbl, err := m.CreateTable("t", []string{"g", "p"})
	if err != nil {
		t.Fatalf("retry after unwound create: %v", err)
	}
	if n := len(tbl.Regions()); n != 3 {
		t.Fatalf("retried table has %d regions, want 3", n)
	}
}

// TestCreateTableConcurrentDuplicate: two CreateTable calls for the
// same name racing each other must resolve to exactly one winner — the
// name is reserved in one critical section, so the existence check
// cannot be interleaved past. Run with -race.
func TestCreateTableConcurrentDuplicate(t *testing.T) {
	m, _ := newCluster(t, 2)
	const attempts = 8
	var wg sync.WaitGroup
	var created atomic.Int32
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.CreateTable("dup", []string{"m"}); err == nil {
				created.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := created.Load(); n != 1 {
		t.Fatalf("%d concurrent CreateTable calls succeeded, want exactly 1", n)
	}
	tbl, err := m.Table("dup")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.Regions()); n != 2 {
		t.Fatalf("winner created %d regions, want 2", n)
	}
	if got := len(m.Assignment()); got != 2 {
		t.Fatalf("assignment holds %d regions, want 2", got)
	}
}
