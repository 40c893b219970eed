package hbase

import (
	"errors"
	"fmt"
	"testing"
)

// tailLossBound is the most acknowledged records a region may lose when
// its server dies mid-burst: the ones the tail shipper had not appended
// to any follower yet.
const tailLossBound = 2 * 64

// wedgedCluster builds a 3-server durable cluster whose table "t" has a
// hot region (keys below "m") sharing its server with a region whose
// flushed SSTable wedges the server's single reconcile worker on a
// starved I/O budget for several seconds: from then on only the tail
// shipper keeps the hot region's followers fresh. It returns the
// cluster, the hot region and its server.
func wedgedCluster(t *testing.T) (*Master, *Client, *Region, *RegionServer) {
	t.Helper()
	dir := t.TempDir()
	cfg := durableConfig(dir)
	// Starve the budget-charged shipping path: the flushed SSTable below
	// takes seconds to copy at 2 KiB/s, wedging the reconcile worker.
	cfg.Compaction.BudgetBytesPerSec = 2 << 10
	m, c := newCatalogCluster(t, 3, dir, cfg)
	if _, err := m.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := m.Table("t")
	var hot, flusher *Region
	for _, r := range tbl.Regions() {
		if r.StartKey() == "" {
			hot = r
		} else {
			flusher = r
		}
	}
	victim, _ := m.HostOf(hot.Name())
	// Co-locate the wedging region with the hot one so they share the
	// victim's replicator (and its single worker).
	if host, _ := m.HostOf(flusher.Name()); host != victim {
		if err := m.MoveRegion(flusher.Name(), victim); err != nil {
			t.Fatal(err)
		}
	}
	// Let every reconcile already running finish: one still in flight on
	// the flusher's previous host would otherwise copy the SSTable below
	// itself, on that host's budget, and leave nothing to wedge on.
	m.QuiesceReplication()
	// Wedge the worker: flush a ~4 KiB SSTable whose replica copy blocks
	// on the starved budget, compounded by the burst's foreground debt.
	if err := c.Put("t", "z-big", make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := flusher.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	rs, err := m.Server(victim)
	if err != nil {
		t.Fatal(err)
	}
	return m, c, hot, rs
}

// burst writes keys a<lo>..a<hi-1> with value "v".
func burst(t *testing.T, c *Client, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := c.Put("t", fmt.Sprintf("a%05d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// killAndRecover asserts the tail shipper ran while the reconcile worker
// was still wedged, kills rs (Shutdown waits out the wedged copy but
// drops the queued notifications, so the followers hold only what the
// shipper appended), recovers it from the replicas alone and returns
// the hot region's recovery report.
func killAndRecover(t *testing.T, m *Master, hot *Region, rs *RegionServer, shipsBefore int64) RegionRecovery {
	t.Helper()
	st := rs.ReplicationStats()
	if st.Active == 0 || st.TailShips == shipsBefore {
		tbl, _ := m.Table("t")
		for _, r := range tbl.Regions() {
			host, _ := m.HostOf(r.Name())
			t.Logf("region %s on %s, followers %v", r.Name(), host, r.Followers())
		}
		for _, srv := range m.Servers() {
			t.Logf("server %s: %+v, budget %+v", srv.Name(), srv.ReplicationStats(), compactorOf(srv).Budget().Stats())
		}
		t.Fatalf("no tail ships while the reconcile worker was wedged (active %d, ships %d -> %d); the starved-worker scenario is not being exercised",
			st.Active, shipsBefore, st.TailShips)
	}
	rs.Shutdown()
	quarantineServerDirs(t, rs)
	report, err := m.RecoverServer(rs.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range report.Regions {
		if rec.Region == hot.Name() {
			return rec
		}
	}
	t.Fatalf("recovery report has no entry for the hot region %s: %+v", hot.Name(), report)
	return RegionRecovery{}
}

// verifySuffixLoss asserts keys a00000..a<acked-1> read back except a
// suffix of exactly rec.LostWrites keys, and that the loss is within
// tailLossBound.
func verifySuffixLoss(t *testing.T, m *Master, rec RegionRecovery, acked int) {
	t.Helper()
	c := NewClient(m)
	missing, firstMissing := 0, -1
	for i := 0; i < acked; i++ {
		k := fmt.Sprintf("a%05d", i)
		v, err := c.Get("t", k)
		switch {
		case errors.Is(err, ErrNotFound):
			missing++
			if firstMissing < 0 {
				firstMissing = i
			}
		case err != nil || string(v) != "v":
			t.Fatalf("%s after recovery: %q, %v", k, v, err)
		}
	}
	t.Logf("%d of %d acknowledged keys missing, %d reported lost, %d tail records replayed",
		missing, acked, rec.LostWrites, rec.TailWrites)
	if int64(missing) != rec.LostWrites {
		t.Fatalf("%d acknowledged keys missing but the report counts %d lost", missing, rec.LostWrites)
	}
	if missing > 0 && firstMissing != acked-missing {
		t.Fatalf("loss is not a suffix: first missing key a%05d, %d missing of %d", firstMissing, missing, acked)
	}
	if missing > tailLossBound {
		t.Fatalf("kill lost %d acknowledged writes; want <= %d", missing, tailLossBound)
	}
}

// TestMidBurstKillLossBoundedByTailFloor kills a server in the middle of
// a sustained write burst — no quiesce, no flush — and asserts the
// recovery report's loss stays within the tail-ship lag bound. The
// scenario is engineered so the tail shipper is the only thing keeping
// followers fresh: a flushed SSTable's replica copy wedges the single
// reconcile worker on a starved I/O budget for several seconds, so any
// tail shipping that waited on the worker would stall (loss would then
// grow with the burst length).
func TestMidBurstKillLossBoundedByTailFloor(t *testing.T) {
	const n = 1200
	m, c, hot, rs := wedgedCluster(t)
	ships := rs.ReplicationStats().TailShips
	// Sustained burst into the hot region while the worker is wedged.
	// Small enough that nothing auto-flushes: every record lives only in
	// the memstore, the WAL, and whatever tail the shipper appended.
	burst(t, c, 0, n)
	rec := killAndRecover(t, m, hot, rs, ships)
	// The survivors must have come from the shipped tail (nothing was
	// flushed), and every write the report claims survived must read back.
	if rec.TailWrites < n-tailLossBound {
		t.Fatalf("only %d of %d burst writes replayed from the shipped tail", rec.TailWrites, n)
	}
	verifySuffixLoss(t, m, rec, n)
}

// TestFlushWindowKillKeepsFlushedWrites flushes the hot region between
// two bursts while the reconcile worker is wedged, so the flush's
// SSTable never reaches a follower before the kill. The flush truncated
// the primary's WAL tail, yet a follower may drop records only once it
// holds the SSTable containing them: the followers' tail must still
// hold every pre-flush record, and the loss must be only the newest
// records no tail append reached — a suffix the report counts exactly.
func TestFlushWindowKillKeepsFlushedWrites(t *testing.T) {
	m, c, hot, rs := wedgedCluster(t)
	ships := rs.ReplicationStats().TailShips
	burst(t, c, 0, 600)
	if err := hot.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	burst(t, c, 600, 900)
	rec := killAndRecover(t, m, hot, rs, ships)
	verifySuffixLoss(t, m, rec, 900)
}
