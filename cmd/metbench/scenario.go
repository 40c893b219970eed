package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"met/internal/hbase"
	"met/internal/sim"
)

// The recovery scenarios (-coldstart, -failover, -procs) share one kit:
// the same two pre-split tables, one log of acknowledged rows written and
// verified through whichever client the scenario drives (hbase.KV), one
// victim picker and one way of taking a dead server's disk away.

// scenarioTables are the tables every recovery scenario writes to.
var scenarioTables = []string{"orders", "users"}

// bootstrapTables creates the scenario tables, pre-split so that every
// server of a three-server cluster hosts regions.
func bootstrapTables(m *hbase.Master) {
	splits := map[string][]string{"users": {"g", "p"}, "orders": {"m"}}
	for _, tn := range scenarioTables {
		if _, err := m.CreateTable(tn, splits[tn]); err != nil {
			log.Fatal(err)
		}
	}
}

// ackLog records every acknowledged write of a scenario — the rows a
// recovery must not lose.
type ackLog struct {
	rng  *sim.RNG
	rows map[[2]string]string // {table, key} -> value
}

func newAckLog(seed uint64) *ackLog {
	return &ackLog{rng: sim.NewRNG(seed), rows: make(map[[2]string]string)}
}

// write puts n rows through c and logs each once acknowledged; any
// failed Put is fatal. Keys spread over the whole alphabet so every
// pre-split region — and therefore every server — holds rows; tag marks
// the scenario phase in the values.
func (a *ackLog) write(c hbase.KV, n int, tag string) {
	for i := 0; i < n; i++ {
		tn := scenarioTables[a.rng.Intn(len(scenarioTables))]
		key := fmt.Sprintf("%c%07x", byte('a'+a.rng.Intn(26)), a.rng.Uint64()&0xfffffff)
		val := fmt.Sprintf("%s/%s/%s%d", tn, key, tag, i)
		if err := c.Put(tn, key, []byte(val)); err != nil {
			log.Fatalf("metbench: put %s/%s: %v", tn, key, err)
		}
		a.rows[[2]string{tn, key}] = val
	}
}

// verify reads every logged row back through c and returns how many are
// missing or stale, naming the first on stderr.
func (a *ackLog) verify(c hbase.KV) (missing int) {
	for row, want := range a.rows {
		v, err := c.Get(row[0], row[1])
		if err != nil || string(v) != want {
			if missing == 0 {
				fmt.Fprintf(os.Stderr, "metbench: first acknowledged write not served back: %s/%s: %q, %v\n", row[0], row[1], v, err)
			}
			missing++
		}
	}
	return missing
}

// mustVerify is verify for the phases that tolerate no loss at all.
func (a *ackLog) mustVerify(c hbase.KV, phase string) {
	if missing := a.verify(c); missing != 0 {
		log.Fatalf("metbench: %s lost %d of %d acknowledged writes", phase, missing, len(a.rows))
	}
}

// pickVictim returns the server hosting the most regions under the
// assignment (region name -> server; ties go to the smaller name) and
// the regions it hosts.
func pickVictim(assignment map[string]string) (victim string, regions []string) {
	hosted := make(map[string][]string)
	for region, server := range assignment {
		hosted[server] = append(hosted[server], region)
	}
	for server, rs := range hosted {
		if len(rs) > len(regions) || (len(rs) == len(regions) && server < victim) {
			victim, regions = server, rs
		}
	}
	if victim == "" {
		log.Fatal("metbench: no server hosts a region to kill")
	}
	sort.Strings(regions)
	return victim, regions
}

// quarantine renames a dead server's primary region directories — and,
// when walOfServer names the server, its shared WAL — away: its disk
// died with it, so recovery provably runs from the surviving replicas
// alone.
func quarantine(dataDir string, regions []string, walOfServer string) {
	dirs := make([]string, 0, len(regions)+1)
	for _, r := range regions {
		dirs = append(dirs, hbase.RegionDataDir(dataDir, r))
	}
	if walOfServer != "" {
		dirs = append(dirs, hbase.ServerWALDir(dataDir, walOfServer))
	}
	for _, dir := range dirs {
		if _, err := os.Stat(dir); err == nil {
			if err := os.Rename(dir, dir+".quarantine"); err != nil {
				log.Fatal(err)
			}
		}
	}
}
