package core

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/metrics"
	"met/internal/placement"
)

// fakeCluster is a Cluster that logs every verb. With async set, adds
// and restarts complete only when the test calls run. Observe returns
// nodeObs and regionObs.
type fakeCluster struct {
	async     bool
	nodeObs   []metrics.NodeObservation
	regionObs []metrics.RegionObservation
	members   map[string]*Member
	assign    map[string]string
	locality  map[string]float64
	idle      map[string]bool // regions that carry no traffic
	failMove  map[string]bool
	log       []string
	pending   []func()
}

func newFakeCluster(async bool, assign map[string]string) *fakeCluster {
	f := &fakeCluster{async: async, members: map[string]*Member{}, assign: assign,
		locality: map[string]float64{}, idle: map[string]bool{}, failMove: map[string]bool{}}
	for _, host := range assign {
		f.members[host] = &Member{Name: host, Config: hbase.DefaultServerConfig(), Serving: true}
	}
	return f
}

func (f *fakeCluster) Observe() ([]metrics.NodeObservation, []metrics.RegionObservation) {
	return f.nodeObs, f.regionObs
}

func (f *fakeCluster) Members() []Member {
	var out []Member
	for _, n := range slices.Sorted(maps.Keys(f.members)) {
		out = append(out, *f.members[n])
	}
	return out
}

func (f *fakeCluster) Assignment() map[string]string { return maps.Clone(f.assign) }

func (f *fakeCluster) Locality(region string) (float64, bool) {
	index, ok := f.locality[region]
	if !ok {
		index = 1
	}
	return index, !f.idle[region]
}

func (f *fakeCluster) later(fn func()) {
	if f.async {
		f.pending = append(f.pending, fn)
	} else {
		fn()
	}
}

func (f *fakeCluster) AddNode(name string, cfg hbase.ServerConfig, done func()) error {
	f.log = append(f.log, "add "+name)
	f.later(func() {
		f.members[name] = &Member{Name: name, Config: cfg, Serving: true}
		f.log = append(f.log, "added "+name)
		done()
	})
	return nil
}

func (f *fakeCluster) RestartNode(name string, cfg hbase.ServerConfig, done func()) error {
	m := f.members[name]
	m.Serving = false
	f.log = append(f.log, "restart "+name)
	f.later(func() {
		m.Config, m.Serving = cfg, true
		f.log = append(f.log, "restarted "+name)
		done()
	})
	return nil
}

func (f *fakeCluster) MoveRegion(region, node string) error {
	if f.failMove[region] {
		return errors.New("move refused")
	}
	f.assign[region] = node
	f.log = append(f.log, "move "+region+" "+node)
	return nil
}

func (f *fakeCluster) RemoveNode(name string) error {
	delete(f.members, name)
	f.log = append(f.log, "remove "+name)
	return nil
}

func (f *fakeCluster) MajorCompact(region string) (int64, error) {
	f.log = append(f.log, "compact "+region)
	return 100, nil
}

// run completes the oldest pending add or restart.
func (f *fakeCluster) run() bool {
	if len(f.pending) == 0 {
		return false
	}
	fn := f.pending[0]
	f.pending = f.pending[1:]
	fn()
	return true
}

// TestActuatorPlanOrder pins the one plan on a cluster whose adds and
// restarts complete later: adds; restarts one at a time in name order,
// each after a drain to the region's serving target host or else the
// serving node with the fewest regions; final placement; compaction of
// the low-locality regions that carry traffic; removal. rs2 leaves, so
// it is not restarted although its config differs from its profile;
// rs3 already runs its profile.
func TestActuatorPlanOrder(t *testing.T) {
	f := newFakeCluster(true, map[string]string{
		"a": "rs0", "b": "rs0", "c": "rs1", "d": "rs1", "e": "rs2", "f": "rs3",
	})
	profiles := Table1Profiles()
	f.members["rs3"].Config = profiles[placement.Write]
	f.locality["e"] = 0.5  // below 90%: compacted
	f.locality["a"] = 0.95 // above 90%: kept
	f.locality["c"] = 0.8  // below 90% on a scan node: compacted
	f.locality["d"] = 0.5  // low, but idle: kept
	f.idle["d"] = true
	f.locality["f"] = 0.75 // above the write threshold of 70%: kept
	mon := NewMonitor(f)
	act := NewActuator(f, mon, DefaultParams(), profiles)
	var reports []ApplyReport
	act.OnDone = func(rep ApplyReport, err error) {
		if err != nil {
			t.Errorf("plan error: %v", err)
		}
		reports = append(reports, rep)
	}
	target := []placement.NodeState{
		{Node: "rs9", Type: placement.Read, Partitions: []string{"e"}},
		{Node: "rs1", Type: placement.Scan, Partitions: []string{"c"}},
		{Node: "rs0", Type: placement.Read, Partitions: []string{"a", "b", "d"}},
		{Node: "rs3", Type: placement.Write, Partitions: []string{"f"}},
		{Node: "rs2", Type: placement.ReadWrite},
	}
	if rep, err := act.Apply(target); err != nil || !reflect.DeepEqual(rep, ApplyReport{}) {
		t.Fatalf("Apply returned %+v, %v before anything completed", rep, err)
	}
	if !act.Busy() {
		t.Fatal("actuator not busy mid-plan")
	}
	logged := len(f.log)
	if rep, err := act.Apply(target); err != nil || !reflect.DeepEqual(rep, ApplyReport{}) || len(f.log) != logged {
		t.Fatalf("second Apply in flight acted: %+v, %v, %v", rep, err, f.log[logged:])
	}
	for f.run() {
	}
	if act.Busy() {
		t.Fatal("actuator stuck busy")
	}
	want := []string{
		"add rs9", "added rs9",
		"move a rs9", "move b rs2", "restart rs0", "restarted rs0",
		"move c rs0", "move d rs0", "restart rs1", "restarted rs1",
		"move e rs9", "move c rs1", "move a rs0", "move b rs0",
		"compact e", "compact c",
		"remove rs2",
	}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("plan ran\n  %q\nwant\n  %q", f.log, want)
	}
	wantRep := ApplyReport{
		NodesAdded:     []string{"rs9"},
		NodesRemoved:   []string{"rs2"},
		Reconfigured:   []string{"rs0", "rs1"},
		RegionMoves:    8,
		MajorCompacts:  2,
		CompactedBytes: 200,
	}
	if len(reports) != 1 || !reflect.DeepEqual(reports[0], wantRep) {
		t.Fatalf("reports = %+v, want one %+v", reports, wantRep)
	}
	for node, typ := range map[string]placement.AccessType{"rs9": placement.Read, "rs0": placement.Read, "rs1": placement.Scan} {
		if got := mon.nodeTypes[node]; got != typ {
			t.Errorf("monitor types %s as %v, want %v", node, got, typ)
		}
	}
}

// TestActuatorSkipsFailedSteps pins the error rule: a failed step is
// skipped and left out of the report, the plan goes on, and its error
// joins every failure.
func TestActuatorSkipsFailedSteps(t *testing.T) {
	f := newFakeCluster(false, map[string]string{"a": "rs0", "b": "rs0", "c": "rs1"})
	f.failMove["a"] = true
	act := NewActuator(f, NewMonitor(f), DefaultParams(), Table1Profiles())
	rep, err := act.Apply([]placement.NodeState{
		{Node: "rs1", Type: placement.ReadWrite, Partitions: []string{"a", "b", "c"}},
		{Node: "rs0", Type: placement.ReadWrite},
	})
	if err == nil || act.Err() == nil {
		t.Fatal("failed move not reported")
	}
	if rep.RegionMoves != 3 || f.assign["b"] != "rs1" || f.assign["c"] != "rs1" {
		t.Fatalf("plan stopped at the failed move: %+v, %v", rep, f.assign)
	}
	if len(rep.NodesRemoved) != 0 || f.members["rs0"] == nil {
		t.Fatal("removed a node that still hosts a region")
	}
	if !reflect.DeepEqual(rep.Reconfigured, []string{"rs1"}) {
		t.Fatalf("reconfigured = %v", rep.Reconfigured)
	}
}

// TestActuatorKeepsDeploymentProperties: a re-profile changes only the
// paper's knobs. rs0 already runs its profile, so it is neither drained
// nor restarted; rs1 is, and both keep their slow-op threshold.
func TestActuatorKeepsDeploymentProperties(t *testing.T) {
	m := hbase.NewMaster(hdfs.NewNamenode(2))
	read := Table1Profiles()[placement.Read]
	read.SlowOpThreshold = time.Millisecond
	for _, name := range []string{"rs0", "rs1"} {
		if _, err := m.AddServer(name, read); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"reads", "writes"} {
		if _, err := m.CreateTable(tbl, []string{"m"}); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Assignment()
	hosted := map[string][]string{}
	for _, r := range slices.Sorted(maps.Keys(before)) {
		hosted[before[r]] = append(hosted[before[r]], r)
	}
	mc := &MasterCluster{Master: m}
	act := NewActuator(mc, NewMonitor(mc), DefaultParams(), Table1Profiles())
	rep, err := act.Apply([]placement.NodeState{
		{Node: "rs0", Type: placement.Read, Partitions: hosted["rs0"]},
		{Node: "rs1", Type: placement.Write, Partitions: hosted["rs1"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs0, _ := m.Server("rs0")
	rs1, _ := m.Server("rs1")
	if rs0.Restarts() != 0 || !reflect.DeepEqual(rep.Reconfigured, []string{"rs1"}) {
		t.Fatalf("rs0 restarts = %d, reconfigured = %v", rs0.Restarts(), rep.Reconfigured)
	}
	if after := m.Assignment(); !reflect.DeepEqual(after, before) {
		t.Fatalf("layout changed: %v -> %v", before, after)
	}
	for _, rs := range []*hbase.RegionServer{rs0, rs1} {
		if got := rs.Config().SlowOpThreshold; got != time.Millisecond {
			t.Errorf("%s slow-op threshold = %v after the plan", rs.Name(), got)
		}
	}
	if rs1.Config().MemstoreFraction != 0.55 {
		t.Fatalf("rs1 not write-profiled: %v", rs1.Config())
	}
}
