package hbase

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"met/internal/obs"
)

// scrape parses one server's /metrics page into its met_*_total series,
// keyed by name and labels.
func scrape(t *testing.T, rs *RegionServer) map[string]float64 {
	t.Helper()
	var page strings.Builder
	mw := obs.NewMetricWriter(&page)
	rs.DebugConfig().Metrics(mw)
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(page.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series, name := line[:i], line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		if strings.HasPrefix(name, "met_") && strings.HasSuffix(name, "_total") {
			totals[series] = v
		}
	}
	return totals
}

// TestServerCountersNeverFall runs seeded random sequences of Put,
// flush, major compaction, move, split, restart (one of them with new
// compaction knobs), decommission and hard stop then recover on a
// durable cluster.
// After every step each server's /metrics must show no met_*_total
// counter below its previous reading, unless the server was started
// anew (Stats.Started) in between. A bare move must add to
// its destination at most the one flush that re-homes the store's log,
// and no compaction.
func TestServerCountersNeverFall(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { counterWalk(t, seed) })
	}
}

func counterWalk(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0))
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.HeapBytes = 128 << 10 // a flush every ~30 KB per server
	cfg.Compaction = CompactionConfig{MaxStoreFiles: 4}
	knobs := cfg
	knobs.Compaction = CompactionConfig{MaxStoreFiles: 3, Workers: 2}
	m, c := newDurableCluster(t, 0, dir)
	added := 0
	addServer := func() {
		t.Helper()
		if _, err := m.AddServer(fmt.Sprintf("rs%d", added), cfg); err != nil {
			t.Fatal(err)
		}
		added++
	}
	for range 3 {
		addServer()
	}
	if _, err := m.CreateTable("t", []string{"g", "n", "t"}); err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 256)
	put := func(n int) {
		t.Helper()
		for range n {
			key := fmt.Sprintf("%c%05d", 'a'+rng.IntN(26), rng.IntN(100000))
			if err := c.Put("t", key, value); err != nil {
				t.Fatal(err)
			}
		}
	}
	// pick returns a random hosted region and its server.
	pick := func() (*RegionServer, *Region) {
		servers := m.Servers()
		var hosts []*RegionServer
		var regions []*Region
		for _, rs := range servers {
			for _, r := range rs.Regions() {
				hosts, regions = append(hosts, rs), append(regions, r)
			}
		}
		i := rng.IntN(len(regions))
		return hosts[i], regions[i]
	}
	// settle waits until no server has a compaction queued or running.
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			busy := false
			for _, rs := range m.Servers() {
				busy = busy || rs.Stats().CompactionBacklog > 0
			}
			if !busy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("compactions never settled")
			}
		}
	}
	type reading struct {
		started time.Time
		totals  map[string]float64
	}
	last := map[string]reading{}
	check := func(step string) {
		t.Helper()
		now := map[string]reading{}
		for _, rs := range m.Servers() {
			started, totals := rs.Stats().Started, scrape(t, rs)
			now[rs.Name()] = reading{started, totals}
			prev, ok := last[rs.Name()]
			if !ok || !prev.started.Equal(started) {
				continue
			}
			for series, v := range prev.totals {
				if totals[series] < v {
					t.Errorf("after %s: %s %s fell from %v to %v", step, rs.Name(), series, v, totals[series])
				}
			}
		}
		last = now
	}

	put(300)
	check("load")
	steps := []string{"restart-knobs", "decommission", "recover"}
	for range 27 {
		steps = append(steps, []string{"put", "put", "flush", "compact", "move", "split", "restart"}[rng.IntN(7)])
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	for _, step := range steps {
		switch step {
		case "put":
			put(50 + rng.IntN(150))
		case "flush":
			if _, r := pick(); r.Store().Flush() != nil {
				t.Fatalf("flush %s failed", r.Name())
			}
		case "compact":
			rs, r := pick()
			if _, err := rs.MajorCompact(r.Name()); err != nil {
				t.Fatal(err)
			}
		case "move":
			// A bare move: the store's files sit well under the
			// compaction threshold and nothing else runs, so the move's
			// own work is all the counters may show.
			src, r := pick()
			if _, err := src.MajorCompact(r.Name()); err != nil {
				t.Fatal(err)
			}
			others := slices.DeleteFunc(m.Servers(), func(rs *RegionServer) bool { return rs == src })
			dst := others[rng.IntN(len(others))]
			settle()
			check("settle")
			before := last[dst.Name()].totals
			if err := m.MoveRegion(r.Name(), dst.Name()); err != nil {
				t.Fatal(err)
			}
			after := scrape(t, dst)
			key := fmt.Sprintf("{server=%q}", dst.Name())
			if d := after["met_engine_flushes_total"+key] - before["met_engine_flushes_total"+key]; d > 1 {
				t.Errorf("a bare move added %v flushes to its destination %s, want at most 1", d, dst.Name())
			}
			if d := after["met_engine_compactions_total"+key] - before["met_engine_compactions_total"+key]; d != 0 {
				t.Errorf("a bare move added %v compactions to its destination %s, want 0", d, dst.Name())
			}
		case "split":
			_, r := pick()
			if err := m.SplitRegion(r.Name()); err != nil && !strings.Contains(err.Error(), "too little data") {
				t.Fatal(err)
			}
		case "restart", "restart-knobs":
			rs, _ := pick()
			next := rs.Config()
			if step == "restart-knobs" {
				next = knobs
			}
			if err := m.RestartServer(rs.Name(), next); err != nil {
				t.Fatal(err)
			}
		case "decommission":
			rs, _ := pick()
			if err := m.DecommissionServer(rs.Name()); err != nil {
				t.Fatal(err)
			}
			addServer()
		case "recover":
			// A hard stop first: the stopped server is still a member,
			// and its counters must hold until recovery removes it.
			rs, _ := pick()
			rs.Shutdown()
			check("hardstop")
			if _, err := m.RecoverServer(rs.Name()); err != nil {
				t.Fatal(err)
			}
			addServer()
		}
		check(step)
	}
}
