package hbase

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// failoverCluster is what TestNodeSurfaceFailover needs from a running
// cluster, whichever master drives it.
type failoverCluster struct {
	layout  *LayoutMaster
	get     func(table, key string) ([]byte, error)
	put     func(table, key string, value []byte) error
	quiesce func()
	// kill hard-stops the named server and quarantines its directories;
	// recover fails it over and checks the path-specific report.
	kill    func(t *testing.T, name string)
	recover func(t *testing.T, name string)
	stop    func()
}

// openInProcess reopens dir as one Master owning every RegionServer.
func openInProcess(t *testing.T, dir string) failoverCluster {
	m, err := OpenCluster(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.HardStop)
	c := NewClient(m)
	return failoverCluster{
		layout: m.layout, get: c.Get, put: c.Put,
		quiesce: m.QuiesceReplication,
		kill: func(t *testing.T, name string) {
			rs, err := m.Server(name)
			if err != nil {
				t.Fatal(err)
			}
			rs.Shutdown()
			quarantineServerDirs(t, rs)
		},
		recover: func(t *testing.T, name string) {
			report, err := m.RecoverServer(name)
			if err != nil {
				t.Fatal(err)
			}
			if report.LostWrites != 0 {
				t.Fatalf("quiesced failover lost %d writes", report.LostWrites)
			}
			for _, rec := range report.Regions {
				if rec.Source == name {
					t.Fatalf("region adopted onto the dead server: %+v", rec)
				}
				if rec.ReplicaFiles == 0 {
					t.Fatalf("adoption of %s copied no replica files", rec.Region)
				}
			}
		},
		stop: m.HardStop,
	}
}

// openNodes reopens dir the way a multi-process cluster does —
// LayoutMaster plus one OpenServerNode worker per member — inside this
// process, with direct calls standing in for the RPCs.
func openNodes(t *testing.T, dir string) failoverCluster {
	lm, err := OpenLayoutMaster(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lm.Close)
	nodes := make(map[string]*RegionServer)
	for _, sn := range lm.ServerNames() {
		man, err := lm.Manifest(sn)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := OpenServerNode(man)
		if err != nil {
			t.Fatal(err)
		}
		nodes[sn] = rs
		t.Cleanup(rs.Shutdown)
	}
	host := func(table, key string) *RegionServer {
		_, layout := lm.Layout()
		for _, r := range layout {
			if r.Table == table && key >= r.Start && (r.End == "" || key < r.End) {
				return nodes[r.Server]
			}
		}
		t.Fatalf("no region for %s/%q", table, key)
		return nil
	}
	return failoverCluster{
		layout: lm,
		get:    func(table, key string) ([]byte, error) { return host(table, key).Get(table, key) },
		put:    func(table, key string, v []byte) error { return host(table, key).Put(table, key, v) },
		quiesce: func() {
			for _, rs := range nodes {
				rs.QuiesceReplication()
			}
		},
		kill: func(t *testing.T, name string) {
			nodes[name].Shutdown()
			quarantineServerDirs(t, nodes[name])
		},
		recover: func(t *testing.T, name string) {
			epoch0 := lm.Epoch()
			adopted, err := lm.RecoverServer(name,
				func(sp AdoptSpec) (AdoptionReport, error) { return nodes[sp.Source].AdoptRegion(sp) },
				func(up FollowerUpdate) {
					if err := nodes[up.Server].Refollow(up); err != nil {
						t.Error(err)
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range adopted {
				if a.Spec.Source == name {
					t.Fatalf("plan adopted onto the dead server: %+v", a.Spec)
				}
				if a.Spec.ReplicaDir == "" {
					t.Fatalf("no surviving replica elected for %s", a.Spec.Region)
				}
				if a.Report.ReplicaFiles == 0 {
					t.Fatalf("adoption of %s copied no replica files", a.Spec.Region)
				}
			}
			if epoch1 := lm.Epoch(); epoch1 <= epoch0 {
				t.Fatalf("routing epoch did not advance across recovery: %d -> %d", epoch0, epoch1)
			}
			delete(nodes, name)
		},
		stop: func() {
			for _, rs := range nodes {
				rs.Shutdown()
			}
			lm.Close()
		},
	}
}

// TestNodeSurfaceFailover runs one failover scenario — 3 servers, 2
// tables, flush + quiesce, kill one server, recover it, cold-start the
// result — once through Master.RecoverServer and once through the
// multi-process split (LayoutMaster + OpenServerNode workers), and
// requires the two to commit the same catalog: one failover path, one
// follower-placement policy, whichever master runs them.
func TestNodeSurfaceFailover(t *testing.T) {
	type catalogRows struct {
		Servers  []string
		SplitSeq int64
		Tables   map[string]tableRow
	}
	tables := []string{"t", "u"}
	run := func(t *testing.T, open func(*testing.T, string) failoverCluster) catalogRows {
		dir := t.TempDir()
		// Bootstrap with the full in-process Master, then stop: the catalog
		// now holds the committed layout either surface starts from.
		m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
		for _, tn := range tables {
			if _, err := m.CreateTable(tn, []string{"g", "p"}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 90; i++ {
				if err := c.Put(tn, fmt.Sprintf("%c%04d", 'a'+byte(i%26), i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
		flushAll(t, m)
		m.QuiesceReplication()
		m.HardStop()

		cl := open(t, dir)
		check := func(stage string) {
			t.Helper()
			for _, tn := range tables {
				for i := 0; i < 90; i++ {
					k := fmt.Sprintf("%c%04d", 'a'+byte(i%26), i)
					if v, err := cl.get(tn, k); err != nil || string(v) != "v" {
						t.Fatalf("%s: get %s/%s: %q, %v", stage, tn, k, v, err)
					}
				}
			}
		}
		// Every bootstrap write is readable through the reopened cluster,
		// and new writes land (and replicate) through it too.
		check("after reopen")
		for i := 0; i < 30; i++ {
			if err := cl.put("t", fmt.Sprintf("%c9%03d", 'a'+byte(i%26), i), []byte("w")); err != nil {
				t.Fatal(err)
			}
		}
		cl.quiesce()

		// Kill the host of t's first region and fail it over.
		_, layout := cl.layout.Layout()
		victim := layout[0].Server
		cl.kill(t, victim)
		cl.recover(t, victim)
		_, layout = cl.layout.Layout()
		for _, r := range layout {
			if r.Server == victim || slices.Contains(r.Followers, victim) {
				t.Fatalf("layout still references the dead server: %+v", r)
			}
		}
		check("after failover")
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("%c9%03d", 'a'+byte(i%26), i)
			if v, err := cl.get("t", k); err != nil || string(v) != "w" {
				t.Fatalf("post-reopen write %s lost in failover: %q, %v", k, v, err)
			}
		}

		// The committed result must also cold-start: the catalog rows the
		// recovery wrote are a complete, consistent layout.
		cl.stop()
		m2, err := OpenCluster(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m2.HardStop)
		cl.get = NewClient(m2).Get
		check("cold start after failover")

		rows := catalogRows{Servers: m2.layout.ServerNames(), SplitSeq: m2.layout.splitSeq, Tables: map[string]tableRow{}}
		for tn, row := range m2.layout.tables {
			r := *row
			r.Rev = 0
			rows.Tables[tn] = r
		}
		return rows
	}

	var got [2]catalogRows
	for i, tc := range []struct {
		name string
		open func(*testing.T, string) failoverCluster
	}{
		{"Master.RecoverServer", openInProcess},
		{"LayoutMaster+OpenServerNode", openNodes},
	} {
		t.Run(tc.name, func(t *testing.T) { got[i] = run(t, tc.open) })
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("the two masters committed different catalogs:\nin-process: %+v\nnetworked:  %+v", got[0], got[1])
	}
}
