package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"met/internal/hbase"
	"met/internal/hdfs"
)

// TestStalledServerReadsOverloaded: two durable servers take the same
// light load — one paced writer each, overwriting a few keys — but one
// server's compaction budget is starved, so its writer stalls on the
// store-file ceiling while it serves almost nothing. The Monitor must
// see that server's I/O wait cross IOWaitHigh, with its CPU and memory
// below their thresholds so the I/O rule is the one that fires, while
// the other server reads less I/O wait and stays below the CPU and
// memory thresholds; StageA must call the cluster overloaded.
func TestStalledServerReadsOverloaded(t *testing.T) {
	m := hbase.NewMaster(hdfs.NewNamenode(2))
	// A small heap makes every ~16 KB of writes a flush.
	cfg := hbase.ServerConfig{
		HeapBytes: 64 << 10, BlockCacheFraction: 0.39, MemstoreFraction: 0.26,
		BlockBytes: 4 << 10, Handlers: 10, DataDir: t.TempDir(),
	}
	starved := cfg
	starved.Compaction = hbase.CompactionConfig{MaxStoreFiles: 1, StallStoreFiles: 2, BudgetBytesPerSec: 128 << 10}
	for name, c := range map[string]hbase.ServerConfig{"rs0": cfg, "rs1": starved} {
		if _, err := m.AddServer(name, c); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(m.HardStop)
	c := hbase.NewClient(m)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for table, server := range map[string]string{"healthy": "rs0", "starved": "rs1"} {
		tb, err := m.CreateTable(table, nil)
		if err != nil {
			t.Fatal(err)
		}
		region := tb.Regions()[0].Name()
		if host, _ := m.HostOf(region); host != server {
			if err := m.MoveRegion(region, server); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			value := make([]byte, 1<<10)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				if err := c.Put(table, fmt.Sprintf("k%02d", i%64), value); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	rs1, err := m.Server("rs1")
	if err != nil {
		t.Fatal(err)
	}
	// A stall under way counts, so the sample may end inside one.
	for deadline := time.Now().Add(10 * time.Second); rs1.Stats().Engine.StalledWrites == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the starved server's writer never stalled")
		}
	}
	mon := NewMonitor(&MasterCluster{Master: m})
	mon.Poll() // the period up to the stall
	mon.Reset()
	time.Sleep(300 * time.Millisecond)
	mon.Poll()

	params := DefaultParams()
	params.MinNodes = 2 // at its floor, the cluster cannot read as underloaded
	view := mon.View()
	byName := map[string]NodeView{}
	for _, n := range view.Nodes {
		byName[n.Name] = n
	}
	if n := byName["rs1"]; n.IOWait <= params.IOWaitHigh || n.CPU >= params.CPUHigh || n.Memory >= params.MemHigh {
		t.Errorf("starved rs1 = %+v, want I/O wait above %v, CPU and memory below %v and %v",
			n, params.IOWaitHigh, params.CPUHigh, params.MemHigh)
	}
	// rs0's fsync time scales with the disk, so its I/O wait is only
	// compared with rs1's: the same load minus the stall reads less.
	if n := byName["rs0"]; n.IOWait >= byName["rs1"].IOWait || n.CPU >= params.CPUHigh || n.Memory >= params.MemHigh {
		t.Errorf("healthy rs0 = %+v, want I/O wait below rs1's, CPU and memory below their thresholds", n)
	}
	if health, _ := NewDecisionMaker(params, Table1Profiles()).stageA(view); health != HealthOverloaded {
		t.Errorf("StageA = %v over %+v, want overloaded", health, view.Nodes)
	}
}
