package hbase

import (
	"errors"
	"fmt"
	"testing"

	"met/internal/hdfs"
	"met/internal/sim"
)

// newCluster builds a master with n servers named rs0..rs{n-1}.
func newCluster(t *testing.T, n int) (*Master, *Client) {
	t.Helper()
	nn := hdfs.NewNamenode(2)
	m := NewMaster(nn)
	for i := 0; i < n; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), DefaultServerConfig()); err != nil {
			t.Fatal(err)
		}
	}
	return m, NewClient(m)
}

func TestServerConfigValidate(t *testing.T) {
	if err := DefaultServerConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultServerConfig()
	bad.BlockCacheFraction = 0.55
	bad.MemstoreFraction = 0.55
	if err := bad.Validate(); err == nil {
		t.Fatal("65% rule not enforced")
	}
	bad = DefaultServerConfig()
	bad.HeapBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero heap accepted")
	}
	bad = DefaultServerConfig()
	bad.BlockBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero block accepted")
	}
	bad = DefaultServerConfig()
	bad.Handlers = 0
	if bad.Validate() == nil {
		t.Fatal("zero handlers accepted")
	}
	bad = DefaultServerConfig()
	bad.MemstoreFraction = -0.1
	if bad.Validate() == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestServerConfigDerived(t *testing.T) {
	cfg := ServerConfig{HeapBytes: 1 << 30, BlockCacheFraction: 0.5, MemstoreFraction: 0.1, BlockBytes: 64 << 10, Handlers: 10}
	if cfg.BlockCacheBytes() != 512<<20 {
		t.Fatalf("cache bytes = %d", cfg.BlockCacheBytes())
	}
	heap := float64(int64(1) << 30)
	if want := int64(heap * 0.1); cfg.MemstoreBytes() != want {
		t.Fatalf("memstore bytes = %d, want %d", cfg.MemstoreBytes(), want)
	}
	if !cfg.Equal(cfg) {
		t.Fatal("config not equal to itself")
	}
	if cfg.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCreateTableAndCRUD(t *testing.T) {
	_, c := newCluster(t, 3)
	m := c.master
	tbl, err := m.CreateTable("usertable", []string{"k250", "k500", "k750"})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRegions() != 4 {
		t.Fatalf("regions = %d, want 4", tbl.NumRegions())
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := c.Put("usertable", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 97 {
		key := fmt.Sprintf("k%03d", i)
		v, err := c.Get("usertable", key)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", key, v, err)
		}
	}
	if _, err := c.Get("usertable", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
	if err := c.Delete("usertable", "k100"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("usertable", "k100"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
}

func TestCreateTableErrors(t *testing.T) {
	m := NewMaster(hdfs.NewNamenode(1))
	if _, err := m.CreateTable("t", nil); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
	m, _ = newCluster(t, 1)
	if _, err := m.CreateTable("t", []string{"b", "a"}); err == nil {
		t.Fatal("unsorted splits accepted")
	}
	if _, err := m.CreateTable("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("t", nil); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := m.Table("nope"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v", err)
	}
	if got := m.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("tables = %v", got)
	}
}

func TestRegionRouting(t *testing.T) {
	m, _ := newCluster(t, 2)
	tbl, _ := m.CreateTable("t", []string{"m"})
	lo := tbl.RegionFor("a")
	hi := tbl.RegionFor("z")
	if lo == hi {
		t.Fatal("same region for both halves")
	}
	if lo.StartKey() != "" || lo.EndKey() != "m" {
		t.Fatalf("lo = [%s,%s)", lo.StartKey(), lo.EndKey())
	}
	if hi.StartKey() != "m" || hi.EndKey() != "" {
		t.Fatalf("hi = [%s,%s)", hi.StartKey(), hi.EndKey())
	}
	if !hi.Contains("m") || lo.Contains("m") {
		t.Fatal("boundary key routed wrong")
	}
}

func TestScanAcrossRegions(t *testing.T) {
	_, c := newCluster(t, 3)
	c.master.CreateTable("t", []string{"k3", "k6"})
	for i := 0; i < 10; i++ {
		c.Put("t", fmt.Sprintf("k%d", i), []byte{byte('0' + i)})
	}
	got, err := c.Scan("t", "k1", "k8", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("scan len = %d: %v", len(got), got)
	}
	if got[0].Key != "k1" || got[6].Key != "k7" {
		t.Fatalf("range [%s..%s]", got[0].Key, got[6].Key)
	}
	// Limited scan across a region boundary.
	got, err = c.Scan("t", "k2", "", 4)
	if err != nil || len(got) != 4 {
		t.Fatalf("limited scan = %v, %v", got, err)
	}
	if got[3].Key != "k5" {
		t.Fatalf("limited scan end = %s", got[3].Key)
	}
}

func TestScanWholeTable(t *testing.T) {
	_, c := newCluster(t, 2)
	c.master.CreateTable("t", []string{"m"})
	c.Put("t", "a", []byte("1"))
	c.Put("t", "z", []byte("2"))
	got, err := c.Scan("t", "", "", -1)
	if err != nil || len(got) != 2 {
		t.Fatalf("scan = %v, %v", got, err)
	}
}

func TestMoveRegionKeepsData(t *testing.T) {
	m, c := newCluster(t, 2)
	tbl, _ := m.CreateTable("t", nil) // single region
	rname := tbl.RegionNames()[0]
	c.Put("t", "k", []byte("v"))
	src, _ := m.HostOf(rname)
	dst := "rs0"
	if src == "rs0" {
		dst = "rs1"
	}
	if err := m.MoveRegion(rname, dst); err != nil {
		t.Fatal(err)
	}
	if host, _ := m.HostOf(rname); host != dst {
		t.Fatalf("host = %s, want %s", host, dst)
	}
	v, err := c.Get("t", "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("after move Get = %q, %v", v, err)
	}
	if m.Moves() != 1 {
		t.Fatalf("moves = %d", m.Moves())
	}
	// Move to same server is a no-op.
	if err := m.MoveRegion(rname, dst); err != nil {
		t.Fatal(err)
	}
	if m.Moves() != 1 {
		t.Fatal("no-op move counted")
	}
	// Move errors.
	if err := m.MoveRegion("nope", dst); err == nil {
		t.Fatal("unknown region accepted")
	}
	if err := m.MoveRegion(rname, "nope"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err = %v", err)
	}
}

// TestBareFlushReachesMirror: the store's files-changed hook is the
// HDFS mirror's wake-up, so a flush nobody follows with a Put (a
// threshold flush on the last write, an operator flush) is mirrored by
// the time it returns.
func TestBareFlushReachesMirror(t *testing.T) {
	m, c := newCluster(t, 1)
	tbl, _ := m.CreateTable("t", nil)
	r := tbl.Regions()[0]
	if err := c.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := r.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Files()); got != 1 {
		t.Fatalf("namenode files after a bare Flush = %d, want the flushed file", got)
	}
}

func TestLocalityDegradesOnMoveAndRecoversOnCompact(t *testing.T) {
	m, c := newCluster(t, 2)
	tbl, _ := m.CreateTable("t", nil)
	rname := tbl.RegionNames()[0]
	// Write enough to force flushes (files land local to the host).
	host, _ := m.HostOf(rname)
	rs, _ := m.Server(host)
	for i := 0; i < 2000; i++ {
		c.Put("t", fmt.Sprintf("k%05d", i), make([]byte, 2048))
	}
	tbl.Regions()[0].Store().Flush()
	// Flush the engine and mirror it by one more put.
	c.Put("t", "trigger", []byte("x"))
	if rs.Locality() < 0.99 {
		t.Fatalf("initial locality = %v", rs.Locality())
	}
	// Move to the other server: locality there should be < 1 (the files
	// stayed behind; replication 2 may give partial locality).
	other := "rs0"
	if host == "rs0" {
		other = "rs1"
	}
	if err := m.MoveRegion(rname, other); err != nil {
		t.Fatal(err)
	}
	oRS, _ := m.Server(other)
	// Major compact restores locality to 1 on the new host.
	if _, err := oRS.MajorCompact(rname); err != nil {
		t.Fatal(err)
	}
	if oRS.Locality() < 0.99 {
		t.Fatalf("post-compact locality = %v", oRS.Locality())
	}
}

func TestMajorCompactUnknownRegion(t *testing.T) {
	m, _ := newCluster(t, 1)
	rs, _ := m.Server("rs0")
	if _, err := rs.MajorCompact("nope"); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestServerStopAndRestart(t *testing.T) {
	m, c := newCluster(t, 1)
	m.CreateTable("t", nil)
	c.Put("t", "k", []byte("v"))
	rs, _ := m.Server("rs0")
	rs.Stop()
	if _, err := c.Get("t", "k"); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("stopped err = %v", err)
	}
	rs.Start()
	if _, err := c.Get("t", "k"); err != nil {
		t.Fatalf("restarted err = %v", err)
	}
}

func TestRestartWithNewConfigKeepsData(t *testing.T) {
	m, c := newCluster(t, 1)
	m.CreateTable("t", nil)
	for i := 0; i < 100; i++ {
		c.Put("t", fmt.Sprintf("k%03d", i), []byte("v"))
	}
	rs, _ := m.Server("rs0")
	newCfg := ServerConfig{
		HeapBytes:          3 << 30,
		BlockCacheFraction: 0.55,
		MemstoreFraction:   0.10,
		BlockBytes:         128 << 10,
		Handlers:           10,
	}
	if err := rs.Restart(newCfg); err != nil {
		t.Fatal(err)
	}
	if !rs.Config().Equal(newCfg) {
		t.Fatal("config not applied")
	}
	if rs.Restarts() != 1 {
		t.Fatalf("restarts = %d", rs.Restarts())
	}
	for i := 0; i < 100; i += 13 {
		if _, err := c.Get("t", fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatalf("k%03d lost after restart: %v", i, err)
		}
	}
	// Invalid config is rejected without wrecking the server.
	bad := newCfg
	bad.BlockCacheFraction = 0.9
	if err := rs.Restart(bad); err == nil {
		t.Fatal("invalid restart accepted")
	}
}

func TestRandomBalancerEvenCounts(t *testing.T) {
	b := &RandomBalancer{RNG: sim.NewRNG(42)}
	regions := make([]string, 20)
	for i := range regions {
		regions[i] = fmt.Sprintf("r%02d", i)
	}
	servers := []string{"s0", "s1", "s2", "s3"}
	plan := b.Assign(regions, servers)
	counts := map[string]int{}
	for _, s := range plan {
		counts[s]++
	}
	for s, n := range counts {
		if n != 5 {
			t.Fatalf("server %s has %d regions, want 5", s, n)
		}
	}
	// No servers -> empty plan.
	if len(b.Assign(regions, nil)) != 0 {
		t.Fatal("empty server list produced a plan")
	}
}

func TestRandomBalancerVariesBySeed(t *testing.T) {
	regions := make([]string, 12)
	for i := range regions {
		regions[i] = fmt.Sprintf("r%02d", i)
	}
	servers := []string{"s0", "s1", "s2"}
	p1 := (&RandomBalancer{RNG: sim.NewRNG(1)}).Assign(regions, servers)
	p2 := (&RandomBalancer{RNG: sim.NewRNG(2)}).Assign(regions, servers)
	diff := 0
	for r := range p1 {
		if p1[r] != p2[r] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestManualBalancer(t *testing.T) {
	b := &ManualBalancer{Plan: map[string]string{"r0": "s1", "r1": "s0"}}
	plan := b.Assign([]string{"r0", "r1", "r2"}, []string{"s0", "s1"})
	if plan["r0"] != "s1" || plan["r1"] != "s0" {
		t.Fatalf("plan = %v", plan)
	}
	if plan["r2"] == "" {
		t.Fatal("unplanned region unassigned")
	}
}

func TestRebalanceAppliesBalancer(t *testing.T) {
	m, _ := newCluster(t, 2)
	tbl, _ := m.CreateTable("t", []string{"b", "c", "d"})
	// Force everything onto rs0, then rebalance with a manual plan that
	// moves two regions to rs1.
	for _, r := range tbl.RegionNames() {
		m.MoveRegion(r, "rs0")
	}
	names := tbl.RegionNames()
	m.SetBalancer(&ManualBalancer{Plan: map[string]string{
		names[0]: "rs0", names[1]: "rs1", names[2]: "rs0", names[3]: "rs1",
	}})
	moved, err := m.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	rs1, _ := m.Server("rs1")
	if rs1.NumRegions() != 2 {
		t.Fatalf("rs1 regions = %d", rs1.NumRegions())
	}
}

func TestDecommissionServer(t *testing.T) {
	m, c := newCluster(t, 3)
	m.CreateTable("t", []string{"h", "p"})
	for i := 0; i < 30; i++ {
		c.Put("t", fmt.Sprintf("%c%02d", 'a'+i%26, i), []byte("v"))
	}
	if err := m.DecommissionServer("rs1"); err != nil {
		t.Fatal(err)
	}
	if len(m.Servers()) != 2 {
		t.Fatalf("servers = %d", len(m.Servers()))
	}
	// All data still reachable.
	for i := 0; i < 30; i++ {
		if _, err := c.Get("t", fmt.Sprintf("%c%02d", 'a'+i%26, i)); err != nil {
			t.Fatalf("lost key after decommission: %v", err)
		}
	}
	if err := m.DecommissionServer("nope"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecommissionLastServerFails(t *testing.T) {
	m, c := newCluster(t, 1)
	m.CreateTable("t", nil)
	c.Put("t", "k", []byte("v"))
	if err := m.DecommissionServer("rs0"); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
	// Server restored; data reachable.
	if _, err := c.Get("t", "k"); err != nil {
		t.Fatalf("err after failed decommission = %v", err)
	}
}

func TestAddServerDuplicate(t *testing.T) {
	m, _ := newCluster(t, 1)
	if _, err := m.AddServer("rs0", DefaultServerConfig()); err == nil {
		t.Fatal("duplicate server accepted")
	}
	if _, err := m.AddServer("bad", ServerConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRequestCountersPerRegionAndServer(t *testing.T) {
	m, c := newCluster(t, 1)
	tbl, _ := m.CreateTable("t", []string{"m"})
	c.Put("t", "a", []byte("1"))
	c.Put("t", "z", []byte("2"))
	c.Get("t", "a")
	c.Scan("t", "a", "b", -1)
	rs, _ := m.Server("rs0")
	req := rs.Requests()
	if req.Writes != 2 || req.Reads != 1 || req.Scans != 1 {
		t.Fatalf("server counters = %+v", req)
	}
	lo := tbl.RegionFor("a")
	if lr := lo.Requests(); lr.Writes != 1 || lr.Reads != 1 || lr.Scans != 1 {
		t.Fatalf("lo region counters = %+v", lr)
	}
	hi := tbl.RegionFor("z")
	if hr := hi.Requests(); hr.Writes != 1 || hr.Reads != 0 {
		t.Fatalf("hi region counters = %+v", hr)
	}
}

func TestReadModifyWrite(t *testing.T) {
	m, c := newCluster(t, 1)
	m.CreateTable("t", nil)
	c.Put("t", "counter", []byte{1})
	err := ReadModifyWrite(c, "t", "counter", func(v []byte) []byte {
		return []byte{v[0] + 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.Get("t", "counter")
	if v[0] != 2 {
		t.Fatalf("counter = %d", v[0])
	}
	// RMW on a missing key passes nil to modify.
	err = ReadModifyWrite(c, "t", "fresh", func(v []byte) []byte {
		if v != nil {
			t.Fatal("expected nil value")
		}
		return []byte{9}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClientUnknownTable(t *testing.T) {
	_, c := newCluster(t, 1)
	if _, err := c.Get("ghost", "k"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Put("ghost", "k", nil); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Scan("ghost", "", "", -1); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestAssignmentSnapshot(t *testing.T) {
	m, _ := newCluster(t, 2)
	m.CreateTable("t", []string{"m"})
	a := m.Assignment()
	if len(a) != 2 {
		t.Fatalf("assignment = %v", a)
	}
	// Mutating the copy must not affect the master.
	for k := range a {
		a[k] = "hacked"
	}
	for _, v := range m.Assignment() {
		if v == "hacked" {
			t.Fatal("assignment leaked internal map")
		}
	}
}
