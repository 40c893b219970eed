package hbase

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMoveRegionUnderLoad bounces one region between two servers while
// readers and writers go through a *Client. A move is make-before-break
// — the destination serves the region before the layout names it, and
// the source serves it until then — so no operation may fail: not with
// ErrWrongRegionServer, not with a closed store, not with a miss.
func TestMoveRegionUnderLoad(t *testing.T) {
	for _, backend := range []string{"memory", "durable"} {
		t.Run(backend, func(t *testing.T) {
			var m *Master
			var c *Client
			if backend == "durable" {
				m, c = newDurableCluster(t, 2, t.TempDir())
			} else {
				m, c = newCluster(t, 2)
			}
			testMoveRegionUnderLoad(t, m, c)
		})
	}
}

func testMoveRegionUnderLoad(t *testing.T, m *Master, c *Client) {
	const rows, readers, writers, moves = 200, 4, 2, 40
	tbl, err := m.CreateTable("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for i := 0; i < rows; i++ {
		if err := c.Put("t", key(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	region := tbl.Regions()[0].Name()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops, failed atomic.Int64
	fail := func(op string, err error) {
		if failed.Add(1) <= 5 {
			t.Errorf("%s: %v", op, err)
		}
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i += readers {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Get("t", key(i%rows)); err != nil {
					fail("get "+key(i%rows), err)
				}
				ops.Add(1)
			}
		}()
	}
	acked := make([][]string, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%06d", g, i)
				if err := c.Put("t", k, []byte(k)); err != nil {
					fail("put "+k, err)
				} else {
					acked[g] = append(acked[g], k)
				}
				ops.Add(1)
			}
		}()
	}

	servers := []string{"rs0", "rs1"}
	for i := 0; i < moves; i++ {
		host, _ := m.HostOf(region)
		dst := servers[0]
		if host == dst {
			dst = servers[1]
		}
		if err := m.MoveRegion(region, dst); err != nil {
			t.Fatalf("move %d to %s: %v", i, dst, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d operations failed across %d moves", n, ops.Load(), moves)
	}
	if m.Moves() != moves {
		t.Fatalf("moves = %d, want %d", m.Moves(), moves)
	}
	for _, keys := range acked {
		for _, k := range keys {
			if v, err := c.Get("t", k); err != nil || string(v) != k {
				t.Fatalf("acked %s: %q, %v", k, v, err)
			}
		}
	}
	t.Logf("%d operations, none failed, across %d moves", ops.Load(), moves)
}
