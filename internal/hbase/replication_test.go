package hbase

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"met/internal/durable"
	"met/internal/kv"
	"met/internal/replication"
)

// flushAll flushes every hosted region's store on every server.
func flushAll(t *testing.T, m *Master) {
	t.Helper()
	for _, rs := range m.Servers() {
		for _, r := range rs.Regions() {
			if err := r.Store().Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// quarantineServerDirs renames every primary region directory — and the
// server's shared WAL directory — of the given (dead) server out of the
// way, simulating the loss of its local disk: recovery that still
// succeeds provably used the replica copies (and shipped tail) alone.
func quarantineServerDirs(t *testing.T, rs *RegionServer) {
	t.Helper()
	dd := rs.Config().DataDir
	for _, r := range rs.Regions() {
		dir := RegionDataDir(dd, r.Name())
		if _, err := os.Stat(dir); err == nil {
			if err := os.Rename(dir, dir+".quarantine"); err != nil {
				t.Fatal(err)
			}
		}
	}
	wd := ServerWALDir(dd, rs.Name())
	if _, err := os.Stat(wd); err == nil {
		if err := os.Rename(wd, wd+".quarantine"); err != nil {
			t.Fatal(err)
		}
	}
}

// dropShippedTails deletes every shipped WAL tail generation from every
// replica directory of the dead server's regions, simulating followers
// that never received a tail frame: recovery then measures loss from
// the replica SSTables alone — the pre-tail-streaming accounting.
func dropShippedTails(t *testing.T, rs *RegionServer) {
	t.Helper()
	dd := rs.Config().DataDir
	for _, r := range rs.Regions() {
		for _, f := range r.Followers() {
			if err := durable.RemoveTailGens(replicaDir(dd, f, r.Name()), math.MaxUint64); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// victimAndKeys picks the server hosting table t's first region and a
// key prefix routed to that region.
func victimAndKeys(t *testing.T, m *Master, table string) (*RegionServer, string) {
	t.Helper()
	tbl, err := m.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.Regions()[0]
	host, ok := m.HostOf(r.Name())
	if !ok {
		t.Fatalf("region %s unassigned", r.Name())
	}
	rs, err := m.Server(host)
	if err != nil {
		t.Fatal(err)
	}
	return rs, r.StartKey()
}

// TestFailoverRecoversFromReplicasAlone is the PR's acceptance
// criterion: with replication factor 2 and a clean flush, a hard-killed
// server's regions recover 100% of acknowledged rows from replica
// SSTables alone — the dead server's primary region directories are
// renamed away before recovery, so any byte served afterwards provably
// came from a follower's copy.
func TestFailoverRecoversFromReplicasAlone(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	acked := map[string]string{}
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
		v := fmt.Sprintf("v%d", i)
		if err := c.Put("t", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}
	flushAll(t, m)
	m.QuiesceReplication()

	victim, _ := victimAndKeys(t, m, "t")
	victimRegions := len(victim.Regions())
	if victimRegions == 0 {
		t.Fatal("victim hosts no regions")
	}
	victim.Shutdown() // hard kill: nothing flushed or closed
	quarantineServerDirs(t, victim)

	report, err := m.RecoverServer(victim.Name())
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	if report.LostWrites != 0 {
		t.Fatalf("clean-flush failover lost %d writes, want 0 (report %+v)", report.LostWrites, report)
	}
	if len(report.Regions) != victimRegions {
		t.Fatalf("recovered %d regions, want %d", len(report.Regions), victimRegions)
	}
	for _, rec := range report.Regions {
		if rec.ReplicaFiles == 0 {
			t.Fatalf("region %s recovered with no replica files — nothing was actually shipped", rec.Region)
		}
	}
	if _, err := m.Server(victim.Name()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("dead server still a member: %v", err)
	}
	for rn, host := range m.Assignment() {
		if host == victim.Name() {
			t.Fatalf("region %s still assigned to the dead server", rn)
		}
	}
	for k, want := range acked {
		v, err := c.Get("t", k)
		if err != nil || string(v) != want {
			t.Fatalf("acknowledged %s lost in failover: %q, %v", k, v, err)
		}
	}
	// The cluster keeps working: new writes land and replicate.
	if err := c.Put("t", "zzz-post", []byte("alive")); err != nil {
		t.Fatalf("put after failover: %v", err)
	}

	// And the recovered layout survives a full cold start.
	m.HardStop()
	m2, err := OpenCluster(dir)
	if err != nil {
		t.Fatalf("cold start after failover: %v", err)
	}
	t.Cleanup(m2.HardStop)
	c2 := NewClient(m2)
	for k, want := range acked {
		v, err := c2.Get("t", k)
		if err != nil || string(v) != want {
			t.Fatalf("row %s lost across failover+coldstart: %q, %v", k, v, err)
		}
	}
	if _, err := m2.Server(victim.Name()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("dead server resurrected by cold start: %v", err)
	}
}

// TestFailoverLossAccounting kills a server with a non-empty memstore
// AND deletes the shipped tails, so recovery sees replica SSTables
// alone: RecoverServer must report exactly the
// acknowledged-but-unreplicated writes as lost, every replicated row
// must be readable, and the lost rows must be absent (not silently
// resurrected from the dead disk).
func TestFailoverLossAccounting(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
		if err := c.Put("t", k, []byte("replicated")); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, m)
	m.QuiesceReplication()

	victim, prefix := victimAndKeys(t, m, "t")
	// Unreplicated tail: acknowledged writes routed to the victim's
	// first region, never flushed, never shipped.
	const lost = 37
	var lostKeys []string
	for i := 0; i < lost; i++ {
		// "0" sorts before any split key, keeping the key inside the
		// victim's first region whatever its bounds.
		k := fmt.Sprintf("%s0unflushed%04d", prefix, i)
		if err := c.Put("t", k, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		lostKeys = append(lostKeys, k)
	}
	victim.Shutdown()
	quarantineServerDirs(t, victim)
	dropShippedTails(t, victim)

	report, err := m.RecoverServer(victim.Name())
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	if report.LostWrites != lost {
		t.Fatalf("reported %d lost writes, want exactly %d (report %+v)", report.LostWrites, lost, report)
	}
	// Every replicated row is readable; every lost row is absent.
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
		if v, err := c.Get("t", k); err != nil || string(v) != "replicated" {
			t.Fatalf("replicated row %s unreadable after failover: %q, %v", k, v, err)
		}
	}
	for _, k := range lostKeys {
		if _, err := c.Get("t", k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lost row %s resurrected (or errored oddly): %v", k, err)
		}
	}
}

// TestFailoverZeroLossRequiresCleanFlush is the contrapositive check on
// the accounting: without the shipped tail (deleted here) and without a
// clean flush, the loss is the memstore and must be reported as
// non-zero.
func TestFailoverZeroLossRequiresCleanFlush(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 2, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := c.Put("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// No flush, no quiesce: everything sits in the memstore.
	tbl, _ := m.Table("t")
	host, _ := m.HostOf(tbl.Regions()[0].Name())
	victim, _ := m.Server(host)
	victim.Shutdown()
	quarantineServerDirs(t, victim)
	dropShippedTails(t, victim)
	report, err := m.RecoverServer(victim.Name())
	if err != nil {
		t.Fatal(err)
	}
	if report.LostWrites != 40 {
		t.Fatalf("unflushed kill reported %d lost, want 40", report.LostWrites)
	}
}

// TestFailoverTailStreamingZeroLossHotMemstore is the tentpole's
// acceptance criterion: a server hard-killed with a deliberately
// unflushed memstore loses NOTHING, because every acknowledged write's
// commit fsync made it into the shared WAL's tail and the replicator
// shipped that tail to the followers before the kill (the quiesce is
// the barrier). Recovery replays the shipped tail over the replica
// SSTables; the dead server's own directories — regions AND WAL — are
// quarantined first, so the recovered rows provably came from the
// followers' copies.
func TestFailoverTailStreamingZeroLossHotMemstore(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
		if err := c.Put("t", k, []byte("flushed")); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, m)
	m.QuiesceReplication()

	victim, prefix := victimAndKeys(t, m, "t")
	// Hot memstore: acknowledged writes routed to the victim's first
	// region, deliberately never flushed. Their commit fsyncs put them
	// in the shared WAL's synced tail; the quiesce ships that tail.
	const hot = 33
	var hotKeys []string
	for i := 0; i < hot; i++ {
		k := fmt.Sprintf("%s0hot%04d", prefix, i)
		if err := c.Put("t", k, []byte("tail-streamed")); err != nil {
			t.Fatal(err)
		}
		hotKeys = append(hotKeys, k)
	}
	m.QuiesceReplication()
	victim.Shutdown()
	quarantineServerDirs(t, victim)

	report, err := m.RecoverServer(victim.Name())
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	if report.LostWrites != 0 {
		t.Fatalf("hot-memstore failover lost %d writes, want 0 (report %+v)", report.LostWrites, report)
	}
	tailed := 0
	for _, rec := range report.Regions {
		tailed += rec.TailWrites
	}
	if tailed < hot {
		t.Fatalf("tail replay covered %d writes, want at least the %d unflushed ones", tailed, hot)
	}
	for _, k := range hotKeys {
		v, err := c.Get("t", k)
		if err != nil || string(v) != "tail-streamed" {
			t.Fatalf("unflushed acknowledged row %s lost: %q, %v", k, v, err)
		}
	}
	// The recovered layout (tail rows included) survives a cold start.
	m.HardStop()
	m2, err := OpenCluster(dir)
	if err != nil {
		t.Fatalf("cold start after tail-streamed failover: %v", err)
	}
	t.Cleanup(m2.HardStop)
	c2 := NewClient(m2)
	for _, k := range hotKeys {
		v, err := c2.Get("t", k)
		if err != nil || string(v) != "tail-streamed" {
			t.Fatalf("tail-streamed row %s lost across cold start: %q, %v", k, v, err)
		}
	}
}

// TestFailoverTornShippedTail corrupts a shipped tail mid-frame: the
// replay must apply the intact prefix, report the tear, and recovery
// must still complete with the loss bounded by the torn suffix.
func TestFailoverTornShippedTail(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 2, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := c.Put("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: everything lives in the tail. Ship it, then tear the
	// shipped copy by appending a frame header that promises more
	// payload than follows (a torn write on the follower's disk).
	m.QuiesceReplication()
	tbl, _ := m.Table("t")
	r := tbl.Regions()[0]
	host, _ := m.HostOf(r.Name())
	victim, _ := m.Server(host)
	torn := 0
	for _, f := range r.Followers() {
		rdir := replicaDir(dir, f, r.Name())
		gens, err := durable.TailGens(rdir)
		if err != nil || len(gens) == 0 {
			continue
		}
		fh, err := os.OpenFile(durable.TailGenPath(rdir, gens[len(gens)-1]), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write([]byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 9}); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		torn++
	}
	if torn == 0 {
		t.Fatal("no shipped tail found to tear — tail streaming never ran")
	}
	victim.Shutdown()
	quarantineServerDirs(t, victim)
	report, err := m.RecoverServer(victim.Name())
	if err != nil {
		t.Fatalf("RecoverServer over torn tail: %v", err)
	}
	if report.LostWrites != 0 {
		t.Fatalf("torn trailing frame lost %d writes, want 0 (intact prefix holds all 25)", report.LostWrites)
	}
	if len(report.Regions) != 1 || !report.Regions[0].TailTorn {
		t.Fatalf("tear not reported: %+v", report.Regions)
	}
	for i := 0; i < 25; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, err := c.Get("t", k); err != nil || string(v) != "v" {
			t.Fatalf("row %s lost under torn tail: %q, %v", k, v, err)
		}
	}
}

// TestRecoverServerRefusesRunning: failover of a live server would fork
// its regions; it must be refused.
func TestRecoverServerRefusesRunning(t *testing.T) {
	dir := t.TempDir()
	m, _ := newCatalogCluster(t, 2, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.RecoverServer("rs0"); !errors.Is(err, ErrServerStillRunning) {
		t.Fatalf("recovering a running server: %v", err)
	}
}

// TestFailoverCrashPoints kills the recovery itself at its commit
// points; a cold start must land in a consistent layout either side,
// and re-running RecoverServer must finish the job.
func TestFailoverCrashPoints(t *testing.T) {
	setup := func(t *testing.T) (*Master, *Client, string, *RegionServer) {
		dir := t.TempDir()
		m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
		if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := c.Put("t", fmt.Sprintf("%c%05d", 'a'+byte(i%26), i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		flushAll(t, m)
		m.QuiesceReplication()
		victim, _ := victimAndKeys(t, m, "t")
		victim.Shutdown()
		return m, c, dir, victim
	}
	verify := func(t *testing.T, m2 *Master) {
		c2 := NewClient(m2)
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
			if v, err := c2.Get("t", k); err != nil || string(v) != "v" {
				t.Fatalf("row %s lost: %q, %v", k, v, err)
			}
		}
	}

	t.Run("mid-reassignment", func(t *testing.T) {
		m, _, dir, victim := setup(t)
		crashAt(t, m, "recoverserver.region-recovered", func() { m.RecoverServer(victim.Name()) })
		m.HardStop()
		m2, err := OpenCluster(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m2.HardStop)
		// Consistent partial recovery: the committed region lives under
		// its new name on a follower; the rest cold-started back onto
		// the revived member. Nothing is lost, nothing doubled.
		verify(t, m2)
		recovered := 0
		for rn, host := range m2.Assignment() {
			if host == victim.Name() && strings.Contains(rn, ".") {
				t.Fatalf("recovered region %s assigned back to the dead server", rn)
			}
			if strings.Contains(rn, ".") {
				recovered++
			}
		}
		if recovered == 0 {
			t.Fatal("no region committed before the crash point")
		}
		// Re-run finishes: stop the revived member and recover again.
		rs, err := m2.Server(victim.Name())
		if err != nil {
			t.Fatalf("mid-recovery member vanished: %v", err)
		}
		rs.Shutdown()
		if _, err := m2.RecoverServer(victim.Name()); err != nil {
			t.Fatalf("re-run after crashed recovery: %v", err)
		}
		verify(t, m2)
		if _, err := m2.Server(victim.Name()); !errors.Is(err, ErrUnknownServer) {
			t.Fatalf("server survived completed recovery: %v", err)
		}
	})

	// Crash between the tail replay and the table-row commit (the
	// fault-injection harness's simulated kill): the replayed tail is
	// durable in the destination's shared WAL but uncommitted. A cold
	// start revives the dead member — whose own WAL replay still holds
	// the unflushed writes — and a re-run recovery replays the shipped
	// tail again, idempotently.
	t.Run("mid-tail-replay", func(t *testing.T) {
		dir := t.TempDir()
		m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
		t.Cleanup(m.HardStop)
		if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := c.Put("t", fmt.Sprintf("%c%05d", 'a'+byte(i%26), i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		flushAll(t, m)
		m.QuiesceReplication()
		victim, prefix := victimAndKeys(t, m, "t")
		var hotKeys []string
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("%s0hot%04d", prefix, i)
			if err := c.Put("t", k, []byte("tail")); err != nil {
				t.Fatal(err)
			}
			hotKeys = append(hotKeys, k)
		}
		m.QuiesceReplication()
		victim.Shutdown()
		crashAt(t, m, "recoverserver.tail-replayed", func() { m.RecoverServer(victim.Name()) })
		m.HardStop()
		m2, err := OpenCluster(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m2.HardStop)
		c2 := NewClient(m2)
		// The revived member's shared WAL replay restored the hot rows.
		for _, k := range hotKeys {
			if v, err := c2.Get("t", k); err != nil || string(v) != "tail" {
				t.Fatalf("hot row %s lost across crashed recovery + cold start: %q, %v", k, v, err)
			}
		}
		// Re-run the failover to completion: the tail replays again onto
		// a fresh generation, with zero loss and no duplication.
		rs, err := m2.Server(victim.Name())
		if err != nil {
			t.Fatalf("mid-recovery member vanished: %v", err)
		}
		rs.Shutdown()
		quarantineServerDirs(t, rs)
		report, err := m2.RecoverServer(victim.Name())
		if err != nil {
			t.Fatalf("re-run after mid-tail crash: %v", err)
		}
		if report.LostWrites != 0 {
			t.Fatalf("re-run lost %d writes, want 0 (report %+v)", report.LostWrites, report)
		}
		for _, k := range hotKeys {
			if v, err := c2.Get("t", k); err != nil || string(v) != "tail" {
				t.Fatalf("hot row %s lost after re-run recovery: %q, %v", k, v, err)
			}
		}
	})

	t.Run("before-membership-drop", func(t *testing.T) {
		m, _, dir, victim := setup(t)
		crashAt(t, m, "recoverserver.reassigned", func() { m.RecoverServer(victim.Name()) })
		m.HardStop()
		m2, err := OpenCluster(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m2.HardStop)
		verify(t, m2)
		// Every region was committed off the dead server; only the
		// membership row survived — the server comes back empty, like a
		// crash mid-decommission.
		rs, err := m2.Server(victim.Name())
		if err != nil {
			t.Fatalf("member vanished without its drop committing: %v", err)
		}
		if n := rs.NumRegions(); n != 0 {
			t.Fatalf("failed-over server still hosts %d regions", n)
		}
		rs.Shutdown()
		if _, err := m2.RecoverServer(victim.Name()); err != nil {
			t.Fatalf("re-run to finish the drop: %v", err)
		}
		if _, err := m2.Server(victim.Name()); !errors.Is(err, ErrUnknownServer) {
			t.Fatalf("server survived re-run: %v", err)
		}
	})
}

// TestReplicaCrashDebrisIsSweptAndHarmless covers the "replica file
// copied but not committed" and "follower mid-copy" crash states: a
// torn .tmp copy and an orphan replica directory (for a region no table
// row references) are synthesized on disk — exactly what a kill
// mid-ship leaves — then the cluster hard-stops. OpenCluster must sweep
// the orphan, the replicator must clean the .tmp, and failover from
// that replica directory must still work.
func TestReplicaCrashDebrisIsSweptAndHarmless(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
	if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := c.Put("t", fmt.Sprintf("%c%05d", 'a'+byte(i%26), i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, m)
	m.QuiesceReplication()

	// Synthesize kill-mid-copy debris inside a live replica directory,
	// plus a whole orphan replica dir for a region that does not exist.
	tbl, _ := m.Table("t")
	r0 := tbl.Regions()[0]
	followers := r0.Followers()
	if len(followers) == 0 {
		t.Fatal("region has no followers")
	}
	liveReplica := replicaDir(dir, followers[0], r0.Name())
	torn := filepath.Join(liveReplica, "sst-0000000099999999.sst.tmp")
	if err := os.WriteFile(torn, []byte("torn copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := replicaDir(dir, followers[0], "t,nonexistent")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "sst-0000000000000001.sst"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	m.HardStop()
	m2, err := OpenCluster(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.HardStop)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan replica directory survived the sweep: %v", err)
	}
	// The torn tmp is cleaned at the next reconciliation.
	c2 := NewClient(m2)
	for i := 0; i < 50; i++ {
		if err := c2.Put("t", fmt.Sprintf("a9%04d", i), []byte("post")); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, m2)
	m2.QuiesceReplication()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn replica copy survived reconciliation: %v", err)
	}
	// The replica is still a valid failover source.
	host, _ := m2.HostOf(tbl.Regions()[0].Name())
	victim, err := m2.Server(host)
	if err != nil {
		t.Fatal(err)
	}
	victim.Shutdown()
	quarantineServerDirs(t, victim)
	report, err := m2.RecoverServer(victim.Name())
	if err != nil {
		t.Fatal(err)
	}
	if report.LostWrites != 0 {
		t.Fatalf("failover over swept debris lost %d writes", report.LostWrites)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
		if _, err := c2.Get("t", k); err != nil {
			t.Fatalf("row %s lost: %v", k, err)
		}
	}
}

// TestRecoverServerPartialFailureResumes: a recovery that fails midway
// (an I/O error on one region) leaves the committed regions failed
// over, keeps the dead server a member so the caller can retry, and
// the retry recovers ONLY the remaining regions — never seeding empty
// duplicates of regions whose replicas were already consumed.
func TestRecoverServerPartialFailureResumes(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("u", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	for _, tn := range []string{"t", "u"} {
		for i := 0; i < 300; i++ {
			if err := c.Put(tn, fmt.Sprintf("%c%05d", 'a'+byte(i%26), i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushAll(t, m)
	m.QuiesceReplication()

	// Two tables × one region per server: the victim hosts 2 regions.
	victim, _ := victimAndKeys(t, m, "t")
	regions := victim.Regions()
	if len(regions) < 2 {
		t.Fatalf("victim hosts %d regions, need >= 2", len(regions))
	}
	victim.Shutdown()
	quarantineServerDirs(t, victim)

	// Block the SECOND region's recovery: its gen-suffixed directory
	// path is occupied by a regular file, so MkdirAll fails after the
	// first region has already committed.
	m.layout.mu.Lock()
	gen := m.layout.splitSeq + 1
	m.layout.mu.Unlock()
	blocker := RegionDataDir(dir, fmt.Sprintf("%s.%d", regions[1].Name(), gen))
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	report1, err := m.RecoverServer(victim.Name())
	if err == nil {
		t.Fatal("partial recovery reported success over a blocked region directory")
	}
	if len(report1.Regions) != 1 {
		t.Fatalf("partial recovery committed %d regions, want 1", len(report1.Regions))
	}
	if _, err := m.Server(victim.Name()); err != nil {
		t.Fatalf("partially recovered server lost its membership (retry impossible): %v", err)
	}

	// Retry after clearing the blocker: only the remaining region is
	// recovered — the first one's consumed replicas are not re-read.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	report2, err := m.RecoverServer(victim.Name())
	if err != nil {
		t.Fatalf("retry after partial recovery: %v", err)
	}
	if len(report2.Regions) != 1 {
		t.Fatalf("retry recovered %d regions, want exactly the 1 remaining", len(report2.Regions))
	}
	if report1.LostWrites != 0 || report2.LostWrites != 0 {
		t.Fatalf("clean-flush partial recovery lost writes: %d + %d", report1.LostWrites, report2.LostWrites)
	}
	if _, err := m.Server(victim.Name()); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("server survived completed retry: %v", err)
	}
	for _, tn := range []string{"t", "u"} {
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
			if _, err := c.Get(tn, k); err != nil {
				t.Fatalf("row %s/%s lost across partial recovery: %v", tn, k, err)
			}
		}
	}
	// No phantom duplicate regions: every assigned region belongs to a
	// table and is hosted where the assignment says.
	for rn, host := range m.Assignment() {
		rs, err := m.Server(host)
		if err != nil {
			t.Fatalf("region %s assigned to unknown server %s", rn, host)
		}
		found := false
		for _, r := range rs.Regions() {
			if r.Name() == rn {
				found = true
			}
		}
		if !found {
			t.Fatalf("region %s assigned to %s but not hosted there", rn, host)
		}
	}
}

// TestRecoveredRegionReplicatesAgain: after failover the recovered
// region has fresh followers and ships to them, so a second failure is
// survivable too.
func TestRecoveredRegionReplicatesAgain(t *testing.T) {
	dir := t.TempDir()
	m, c := newCatalogCluster(t, 3, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", []string{"g", "p"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := c.Put("t", fmt.Sprintf("%c%05d", 'a'+byte(i%26), i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, m)
	m.QuiesceReplication()
	victim1, _ := victimAndKeys(t, m, "t")
	victim1.Shutdown()
	quarantineServerDirs(t, victim1)
	if _, err := m.RecoverServer(victim1.Name()); err != nil {
		t.Fatal(err)
	}
	// Write more, flush, quiesce — then kill the server now hosting the
	// recovered region.
	for i := 0; i < 100; i++ {
		if err := c.Put("t", fmt.Sprintf("%c9%04d", 'a'+byte(i%26), i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, m)
	m.QuiesceReplication()
	victim2, _ := victimAndKeys(t, m, "t")
	victim2.Shutdown()
	quarantineServerDirs(t, victim2)
	report, err := m.RecoverServer(victim2.Name())
	if err != nil {
		t.Fatal(err)
	}
	if report.LostWrites != 0 {
		t.Fatalf("second failover lost %d writes", report.LostWrites)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%c%05d", 'a'+byte(i%26), i)
		if _, err := c.Get("t", k); err != nil {
			t.Fatalf("row %s lost after second failover: %v", k, err)
		}
	}
}

// TestMoveRePicksDegenerateFollowers: moving a region onto its own
// follower re-picks the follower set, so a primary never "replicates"
// to itself.
func TestMoveRePicksDegenerateFollowers(t *testing.T) {
	dir := t.TempDir()
	m, _ := newCatalogCluster(t, 3, dir, durableConfig(dir))
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	tbl, _ := m.Table("t")
	r := tbl.Regions()[0]
	followers := r.Followers()
	if len(followers) == 0 {
		t.Fatal("no followers assigned at create")
	}
	if err := m.MoveRegion(r.Name(), followers[0]); err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Followers() {
		if f == followers[0] {
			t.Fatalf("primary %s is its own follower after move: %v", followers[0], r.Followers())
		}
	}
	if len(r.Followers()) == 0 {
		t.Fatal("re-pick produced no followers")
	}
}

// TestReplicationShipsThroughStack is the end-to-end plumbing check:
// client writes on a durable cluster produce real, byte-complete
// replica directories for every region with data, via the store's
// files-changed hook, without any explicit flush calls.
func TestReplicationShipsThroughStack(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Compaction = CompactionConfig{MaxStoreFiles: 3, StallStoreFiles: 10}
	m, c := newCatalogCluster(t, 2, dir, cfg)
	t.Cleanup(m.HardStop)
	if _, err := m.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		if err := c.Put("t", fmt.Sprintf("k%06d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	m.QuiesceReplication()
	tbl, _ := m.Table("t")
	r := tbl.Regions()[0]
	if r.Store().NumFiles() == 0 {
		t.Fatal("test volume produced no SSTables")
	}
	followers := r.Followers()
	if len(followers) != 1 {
		t.Fatalf("replication factor 2 should yield 1 follower, got %v", followers)
	}
	ids, err := replication.ListSSTables(replicaDir(dir, followers[0], r.Name()))
	if err != nil {
		t.Fatal(err)
	}
	// The replica must cover the primary's current stack (it may
	// briefly also hold files newer notifications will retire).
	have := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, fi := range r.Store().FileInfos() {
		if !have[fi.ID] {
			t.Fatalf("primary file %d missing from replica %v", fi.ID, ids)
		}
	}
	st := func() int64 {
		var sum int64
		for _, rs := range m.Servers() {
			sum += rs.ReplicationStats().BytesShipped
		}
		return sum
	}()
	if st == 0 {
		t.Fatal("no bytes accounted as shipped")
	}
}

// TestReplicaDirsFollowFollowerSet checks the tail shipper's cached
// destinations: built once per follower set, rebuilt when the
// followers change.
func TestReplicaDirsFollowFollowerSet(t *testing.T) {
	r, err := newRegionNamed("t,a", "t", "", "", kv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetFollowers([]string{"rs1", "rs/2"})
	dirs := r.replicaDirs("/data")
	want := []string{replicaDir("/data", "rs1", "t,a"), replicaDir("/data", "rs/2", "t,a")}
	if !slices.Equal(dirs, want) {
		t.Fatalf("replicaDirs = %q, want %q", dirs, want)
	}
	if again := r.replicaDirs("/data"); &again[0] != &dirs[0] {
		t.Fatal("replicaDirs rebuilt the directories for an unchanged follower set")
	}
	r.SetFollowers([]string{"rs3"})
	if got, want := r.replicaDirs("/data"), []string{replicaDir("/data", "rs3", "t,a")}; !slices.Equal(got, want) {
		t.Fatalf("after a re-pick, replicaDirs = %q, want %q", got, want)
	}
}
