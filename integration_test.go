package met

import (
	"fmt"
	"testing"

	"met/internal/core"
	"met/internal/hbase"
	"met/internal/placement"
	"met/internal/sim"
	"met/internal/tpcc"
	"met/internal/ycsb"
)

// TestIntegrationYCSBUnderMeT drives the six paper workloads against the
// functional cluster while MeT reconfigures it and every table's largest
// region splits each round — the full functional stack in one scenario.
func TestIntegrationYCSBUnderMeT(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack workload run")
	}
	cluster, err := NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	var runners []*ycsb.Runner
	for _, w := range ycsb.PaperWorkloads() {
		w.RecordCount = 1500
		if w.Name == "D" {
			w.RecordCount = 200
		}
		w.FieldLengthBytes = 48
		r, err := ycsb.NewRunner(w, cluster.Client, 1, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CreateTable(cluster.Master); err != nil {
			t.Fatal(err)
		}
		if err := r.Load(0); err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}

	params := DefaultParams()
	params.MinSamples = 2
	params.MinNodes = 5
	params.MaxNodes = 5
	ctrl := NewController(cluster, params, 8)
	ctrl.Tick() // prime: absorb the bulk-load counters
	ctrl.Monitor.Reset()

	for round := 0; round < 5; round++ {
		for _, r := range runners {
			if err := r.Run(300); err != nil {
				t.Fatal(err)
			}
		}
		// Splits interleave with controller decisions.
		for _, name := range cluster.Master.Tables() {
			splitLargest(t, cluster.Master, name)
		}
		ctrl.Tick()
	}
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	if ctrl.Actuations() == 0 {
		t.Fatal("MeT never actuated")
	}
	// Cluster heterogeneous, data intact, every op still served.
	configs := map[string]bool{}
	for _, rs := range cluster.Master.Servers() {
		configs[rs.Config().String()] = true
	}
	if len(configs) < 2 {
		t.Fatal("cluster still homogeneous")
	}
	for _, r := range runners {
		if err := r.Run(100); err != nil {
			t.Fatalf("post-reconfig traffic failed: %v", err)
		}
		if r.Errors() != 0 {
			t.Fatalf("workload saw %d errors", r.Errors())
		}
	}
	// At least one table actually split.
	split := false
	for _, name := range cluster.Master.Tables() {
		tbl, _ := cluster.Master.Table(name)
		w := wByTable(name)
		if w != nil && len(tbl.Regions()) > w.Partitions {
			split = true
		}
	}
	if !split {
		t.Fatal("no table split")
	}
}

// splitLargest splits the region of table holding the most data.
func splitLargest(t *testing.T, m *hbase.Master, table string) {
	t.Helper()
	tbl, err := m.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var largest *hbase.Region
	for _, r := range tbl.Regions() {
		if largest == nil || r.DataBytes() > largest.DataBytes() {
			largest = r
		}
	}
	if err := m.SplitRegion(largest.Name()); err != nil {
		t.Fatalf("split %s: %v", largest.Name(), err)
	}
}

func wByTable(table string) *ycsb.Workload {
	for _, w := range ycsb.PaperWorkloads() {
		if w.TableName() == table {
			w := w
			return &w
		}
	}
	return nil
}

// TestIntegrationTPCCSurvivesReconfiguration runs TPC-C transactions
// while the actuator restarts servers under it.
func TestIntegrationTPCCSurvivesReconfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack workload run")
	}
	cluster, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcc.Small()
	loader := &tpcc.Loader{Cfg: cfg, Client: cluster.Client}
	if err := loader.CreateTables(cluster.Master, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load(); err != nil {
		t.Fatal(err)
	}
	exec := tpcc.NewExecutor(cfg, cluster.Client, sim.NewRNG(5))
	driver := tpcc.NewDriver(exec)

	if err := driver.Run(200); err != nil {
		t.Fatal(err)
	}
	// Reconfigure every server to a different profile mid-benchmark
	// (the functional actuator's rolling restart would interleave; here
	// we exercise the restart path directly between batches).
	profiles := Table1Profiles()
	for i, rs := range cluster.Master.Servers() {
		ty := []AccessType{Read, Write, ReadWrite}[i%3]
		if err := rs.Restart(profiles[ty]); err != nil {
			t.Fatal(err)
		}
		if err := driver.Run(100); err != nil {
			t.Fatalf("transactions failed after restarting %s: %v", rs.Name(), err)
		}
	}
	res := driver.Result()
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Total() != 200+3*100 {
		t.Fatalf("total = %d", res.Total())
	}
}

// TestIntegrationLocalityLifecycle verifies the full locality story the
// paper's mechanism depends on: local writes -> move degrades -> major
// compact restores, as observed through the server's own index.
func TestIntegrationLocalityLifecycle(t *testing.T) {
	cluster, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	// Write enough to flush files to HDFS.
	for i := 0; i < 3000; i++ {
		if err := cluster.Put("t", fmt.Sprintf("k%05d", i), make([]byte, 2048)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := cluster.Master.Table("t")
	region := tbl.Regions()[0].Name()
	host, _ := cluster.Master.HostOf(region)
	rs, _ := cluster.Master.Server(host)
	tbl.Regions()[0].Store().Flush()
	cluster.Put("t", "flush-mirror", []byte("x")) // mirrors the flush into HDFS
	if rs.Locality() < 0.99 {
		t.Fatalf("writer locality = %v", rs.Locality())
	}
	// Move twice around the cluster: locality on the final host is low.
	var hosts []string
	for _, s := range cluster.Master.Servers() {
		if s.Name() != host {
			hosts = append(hosts, s.Name())
		}
	}
	for _, dst := range hosts[:2] {
		if err := cluster.Master.MoveRegion(region, dst); err != nil {
			t.Fatal(err)
		}
	}
	final, _ := cluster.Master.Server(hosts[1])
	// Compact restores locality; data remains correct throughout.
	if _, err := final.MajorCompact(region); err != nil {
		t.Fatal(err)
	}
	if final.Locality() < 0.99 {
		t.Fatalf("post-compact locality = %v", final.Locality())
	}
	v, err := cluster.Get("t", "k00042")
	if err != nil || len(v) != 2048 {
		t.Fatalf("data damaged by moves/compaction: %v", err)
	}
}

// TestIntegrationDecisionMakerOnFunctionalCounters checks that the
// classification the Decision Maker computes from *real* measured
// counters matches the workloads' declared natures.
func TestIntegrationDecisionMakerOnFunctionalCounters(t *testing.T) {
	cluster, _ := NewCluster(2)
	for _, tbl := range []string{"readonly", "writeonly"} {
		if err := cluster.CreateTable(tbl, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%03d", i)
		cluster.Put("writeonly", k, []byte("v"))
		if i == 0 {
			cluster.Put("readonly", k, []byte("v"))
		}
		cluster.Get("readonly", "k000")
		cluster.Get("readonly", "k000")
	}
	mon := core.NewMonitor(&core.MasterCluster{Master: cluster.Master, NominalOpsPerSec: 50})
	mon.Poll()
	view := mon.View()
	var readType, writeType AccessType
	params := DefaultParams()
	for _, p := range view.Partitions {
		ty := placement.Classify(p.Requests, params.Classify)
		switch {
		case len(p.Name) >= 8 && p.Name[:8] == "readonly":
			readType = ty
		case len(p.Name) >= 9 && p.Name[:9] == "writeonly":
			writeType = ty
		}
	}
	if readType != Read {
		t.Errorf("readonly table classified %v", readType)
	}
	if writeType != Write {
		t.Errorf("writeonly table classified %v", writeType)
	}
	_ = hbase.DefaultServerConfig()
}
