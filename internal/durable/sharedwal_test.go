package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"met/internal/kv"
)

// encodeFrameV1 hand-builds a legacy v1 frame (no region field) for the
// version-compat test; production code only ever writes v2.
func encodeFrameV1(e kv.Entry) []byte {
	payload := []byte{0}
	payload = binary.AppendUvarint(payload, e.Timestamp)
	payload = binary.AppendUvarint(payload, uint64(len(e.Key)))
	payload = append(payload, e.Key...)
	payload = binary.AppendUvarint(payload, uint64(len(e.Value)))
	payload = append(payload, e.Value...)
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderSize:], payload)
	return frame
}

func regionEntry(region string, i int) kv.Entry {
	return kv.Entry{
		Key:       fmt.Sprintf("%s-key-%04d", region, i),
		Value:     []byte(fmt.Sprintf("%s-val-%04d", region, i)),
		Timestamp: uint64(i),
	}
}

// Cross-region group commit: buffered appends from two regions, one
// commit, one fsync. This is the server-wide log's whole point — N
// hosted regions share a single fsync stream instead of one each.
func TestSharedWALCrossRegionGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a, b := w.Region("A"), w.Region("B")
	var commits []func() error
	for i := 1; i <= 3; i++ {
		ca, err := a.AppendBuffered(regionEntry("A", i))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.AppendBuffered(regionEntry("B", i))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, ca, cb)
	}
	// Committing the newest record covers all six across both regions.
	if err := commits[len(commits)-1](); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncRounds(); got != 1 {
		t.Fatalf("6 appends over 2 regions took %d sync rounds, want 1", got)
	}
	for i, c := range commits[:len(commits)-1] {
		if err := c(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := w.SyncRounds(); got != 1 {
		t.Fatalf("older commits triggered extra syncs: %d rounds", got)
	}
	// Replay through a region handle filters to that region's records.
	for name, h := range map[string]*RegionLog{"A": a, "B": b} {
		entries, err := h.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("region %s replayed %d records, want 3", name, len(entries))
		}
		for i, e := range entries {
			if want := fmt.Sprintf("%s-key-%04d", name, i+1); e.Key != want {
				t.Fatalf("region %s record %d: key %q, want %q", name, i, e.Key, want)
			}
		}
	}
}

// One region's flush must not free segments another region still needs:
// truncation is per-region high-water marks, segment deletion only when
// every region's mark passes the segment's maxima.
func TestSharedWALPerRegionTruncationPinning(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 64}) // rotate almost every record
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a, b := w.Region("A"), w.Region("B")
	for i := 1; i <= 10; i++ {
		if err := a.Append(regionEntry("A", i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(regionEntry("B", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.SegmentCount()
	if before < 5 {
		t.Fatalf("expected many segments, got %d", before)
	}
	// A is fully flushed; every segment still holds B records, so none
	// may be deleted and B's records must all survive.
	a.Truncate(10)
	entries, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("A's flush truncated B's records: %d left, want 10", len(entries))
	}
	// Once B flushes too, the shared prefix is reclaimed.
	b.Truncate(10)
	if after := w.SegmentCount(); after >= before {
		t.Fatalf("both regions flushed but no segments freed (%d -> %d)", before, after)
	}
	if all, _, err := w.Replay(); err != nil || len(all) != 0 {
		t.Fatalf("fully flushed log still replays %d records (%v)", len(all), err)
	}
}

// A drop marker durably voids a region's records: they stop pinning
// segments immediately, survive a restart as "absent", and a re-minted
// region under the same name starts clean instead of resurrecting them.
func TestSharedWALDropMarkerVoidsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Region("A"), w.Region("B")
	for i := 1; i <= 8; i++ {
		if err := a.Append(regionEntry("A", i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(regionEntry("B", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.SegmentCount()
	if err := w.Drop("A"); err != nil {
		t.Fatal(err)
	}
	// A never flushed, yet with its records voided B's flush alone must
	// reclaim the shared prefix.
	b.Truncate(8)
	if after := w.SegmentCount(); after >= before {
		t.Fatalf("dropped region still pins segments (%d -> %d)", before, after)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	a2 := w2.Region("A")
	if entries, err := a2.Replay(); err != nil || len(entries) != 0 {
		t.Fatalf("dropped region replayed %d records after restart (err=%v), want 0", len(entries), err)
	}
	// The re-minted region's own records replay normally.
	if err := a2.Append(regionEntry("A", 100)); err != nil {
		t.Fatal(err)
	}
	entries, err := a2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Timestamp != 100 {
		t.Fatalf("re-minted region replay: %+v, want just ts=100", entries)
	}
}

// Regression: Truncate used to hold the log mutex across the segment
// unlink and directory sync, so a slow filesystem stalled every
// concurrent append for the duration. The unlink must run off-lock.
func TestSharedWALTruncateUnlinksOffLock(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Region("")
	for i := 1; i <= 20; i++ {
		if err := h.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Slow-filesystem shim: the first unlink parks until released.
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	prev := walRemoveFile
	walRemoveFile = func(path string) error {
		entered <- struct{}{}
		<-release
		return os.Remove(path)
	}
	defer func() { walRemoveFile = prev }()

	truncDone := make(chan struct{})
	go func() {
		h.Truncate(20)
		close(truncDone)
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("truncate never reached the unlink")
	}
	// The unlink is parked; an append (including its fsync) must still
	// complete. With the old under-lock deletion this deadlocks.
	appendDone := make(chan error, 1)
	go func() { appendDone <- h.Append(testEntry(21)) }()
	select {
	case err := <-appendDone:
		if err != nil {
			t.Fatalf("append during slow unlink: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append stalled behind a slow segment unlink")
	}
	close(release)
	<-truncDone
}

// Regression: a failed fsync used to count toward SyncRounds, skewing
// the writes-per-fsync metric with rounds that durably covered nothing.
// Only successful rounds count, and the pending-region notification is
// deferred to the next good round.
func TestSharedWALFailedFsyncNotCounted(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	notified := make(map[string]int)
	w, err := OpenWAL(dir, Options{OnSynced: func(regions map[string]bool) {
		mu.Lock()
		for r := range regions {
			notified[r]++
		}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Region("r1")

	injected := errors.New("injected fsync failure")
	prev := walSyncFile
	walSyncFile = func(f *os.File, noSync bool) error { return injected }
	failedErr := h.Append(regionEntry("r1", 1))
	walSyncFile = prev

	if !errors.Is(failedErr, injected) {
		t.Fatalf("append over failing fsync returned %v, want injected error", failedErr)
	}
	if got := w.SyncRounds(); got != 0 {
		t.Fatalf("failed fsync counted as a sync round: %d", got)
	}
	mu.Lock()
	n := len(notified)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("failed round notified regions %v", notified)
	}

	// The next good round covers both records and reports the region.
	if err := h.Append(regionEntry("r1", 2)); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncRounds(); got != 1 {
		t.Fatalf("sync rounds after recovery = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	// The failed round's region carries over: the good round reports
	// it, exactly once.
	if notified["r1"] != 1 {
		t.Fatalf("good round reported %v, want r1 once", notified)
	}
}

// syncedTail is every durable-but-unflushed record of region.
func syncedTail(w *WAL, region string) []kv.Entry {
	tail, _ := w.TailFrom(region, 0, math.MaxUint64)
	return tail
}

// TailFrom hands the replicator exactly the durable-but-unflushed
// records: nothing before the fsync, evicted by flush truncation, and
// from a later position only what was synced since.
func TestSharedWALSyncedTailLifecycle(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{KeepTail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Region("r")
	commit, err := h.AppendBuffered(regionEntry("r", 1))
	if err != nil {
		t.Fatal(err)
	}
	if tail := syncedTail(w, "r"); len(tail) != 0 {
		t.Fatalf("unsynced record already in tail: %+v", tail)
	}
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	tail, next := w.TailFrom("r", 0, math.MaxUint64)
	if len(tail) != 1 || tail[0].Timestamp != 1 {
		t.Fatalf("synced tail = %+v, want the one committed record", tail)
	}
	// From the returned position on, only what was synced since.
	if err := h.Append(regionEntry("r", 2)); err != nil {
		t.Fatal(err)
	}
	tail, next2 := w.TailFrom("r", next, math.MaxUint64)
	if len(tail) != 1 || tail[0].Timestamp != 2 {
		t.Fatalf("tail from position %d = %+v, want only record 2", next, tail)
	}
	// Another region's flush must not evict it.
	w.Region("other").Truncate(99)
	if tail := syncedTail(w, "r"); len(tail) != 2 {
		t.Fatalf("foreign truncate evicted tail: %+v", tail)
	}
	// Our flush does — but only as far as the shipping cursor has
	// passed: syncedTail left it at 0, so both records stay for the
	// shipper until a flush finds the cursor past them.
	h.Truncate(2)
	if tail, _ := w.TailFrom("r", next, math.MaxUint64); len(tail) != 1 || tail[0].Timestamp != 2 {
		t.Fatalf("flushed but unshipped record 2 not held for the shipper: %+v", tail)
	}
	if tail, _ := w.TailFrom("r", next2, math.MaxUint64); len(tail) != 0 {
		t.Fatalf("records returned again past the cursor: %+v", tail)
	}
	h.Truncate(2)
	if tail := syncedTail(w, "r"); len(tail) != 0 {
		t.Fatalf("flushed record still in tail: %+v", tail)
	}
}

// Regression: a reopened log must seed the tail from its surviving
// segments. KeepTail used to start empty after a restart, so the first
// reconciliation shipped an empty tail and deleted the followers' tail
// files — revoking coverage of records that exist only in the restarted
// server's memstores and its own log.
func TestSharedWALTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{KeepTail: true})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("r")
	for i := 1; i <= 4; i++ {
		if err := h.Append(regionEntry("r", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Drop("gone"); err != nil { // voided region: must not resurface
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, Options{KeepTail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	h2 := w2.Region("r")
	tail, next := w2.TailFrom("r", 0, math.MaxUint64)
	if len(tail) != 4 {
		t.Fatalf("reopened tail has %d records, want the 4 unflushed ones", len(tail))
	}
	// Recovered records sit at position 0: a cursor past it skips them.
	if tail, _ := w2.TailFrom("r", next, math.MaxUint64); len(tail) != 0 {
		t.Fatalf("recovered records returned again from position %d: %+v", next, tail)
	}
	if got := syncedTail(w2, "gone"); len(got) != 0 {
		t.Fatalf("dropped region resurfaced in reopened tail: %+v", got)
	}
	// A flush truncation still evicts recovered records.
	h2.Truncate(4)
	if tail := syncedTail(w2, "r"); len(tail) != 0 {
		t.Fatalf("flushed recovered records still in tail: %+v", tail)
	}
}

// Tail-generation roundtrip plus the torn-frame contract ReadTail gives
// recovery: the intact prefix of a torn generation is returned, the tear
// is reported, and later generations are still read.
func TestTailFileRoundtripAndTornFrame(t *testing.T) {
	dir := t.TempDir()
	if entries, torn, err := ReadTail(dir); err != nil || torn || len(entries) != 0 {
		t.Fatalf("no tail generations: %d entries, torn=%v, err=%v; want empty clean", len(entries), torn, err)
	}
	var want []kv.Entry
	for i := 1; i <= 5; i++ {
		want = append(want, regionEntry("r", i))
	}
	if _, err := CreateTailGen(dir, 1, want[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateTailGen(dir, 1, want[:2]); err == nil {
		t.Fatal("an existing generation was overwritten")
	}
	if _, err := AppendTail(TailGenPath(dir, 1), want[2:]); err != nil {
		t.Fatal(err)
	}
	got, torn, err := ReadTail(dir)
	if err != nil || torn {
		t.Fatalf("clean tail read: torn=%v, err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("roundtrip lost records: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) || got[i].Timestamp != want[i].Timestamp {
			t.Fatalf("record %d mangled: %+v != %+v", i, got[i], want[i])
		}
	}
	// Torn final frame: claims 200 payload bytes, has 1.
	f, err := os.OpenFile(TailGenPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, torn, err = ReadTail(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("torn frame not reported")
	}
	if len(got) != len(want) {
		t.Fatalf("torn read returned %d records, want the %d intact ones", len(got), len(want))
	}
	// A later generation is read past the torn one.
	extra := regionEntry("r", 6)
	if _, err := CreateTailGen(dir, 2, []kv.Entry{extra}); err != nil {
		t.Fatal(err)
	}
	if got, torn, err = ReadTail(dir); err != nil || !torn || len(got) != len(want)+1 || got[len(want)].Timestamp != 6 {
		t.Fatalf("read past a torn generation: %d records, torn=%v, err=%v", len(got), torn, err)
	}
	// Removing the generations the flushed SSTables superseded leaves
	// only the newer ones.
	if err := RemoveTailGens(dir, 1); err != nil {
		t.Fatal(err)
	}
	if gens, err := TailGens(dir); err != nil || len(gens) != 1 || gens[0] != 2 {
		t.Fatalf("after removing generation 1: %v, %v", gens, err)
	}
}

// Legacy v1 segments (single-store logs from before the shared-WAL
// format) still replay: the version byte selects the old payload
// layout without a region field.
func TestSharedWALReadsV1Segments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the sealed segment as a v1 log by hand: v1 header, then
	// v1 frames (flags|ts|klen|key|vlen|value — no region field).
	buf := append([]byte(walMagic), walVersionV1)
	for i := 1; i <= 3; i++ {
		buf = append(buf, encodeFrameV1(testEntry(i))...)
	}
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	entries, report, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if report.Torn || len(entries) != 3 {
		t.Fatalf("v1 replay: %d entries, torn=%v; want 3 clean", len(entries), report.Torn)
	}
	for i, e := range entries {
		if e.Timestamp != uint64(i+1) || e.Key != fmt.Sprintf("key-%04d", i+1) {
			t.Fatalf("v1 record %d mangled: %+v", i, e)
		}
	}
}

// Regression: Close used to publish closed and drop w.mu before its
// final fsync, so a racing commit leader hit syncActive's closed
// fast-path and acknowledged records as durable inside the pre-fsync
// window — and when that fsync then failed, the already-credited synced
// watermark masked the error from waiters. Close now settles the final
// fsync through the committer leader slot, so a failed final fsync must
// reach every buffered-commit waiter.
func TestSharedWALCloseFailedFsyncFailsWaiters(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("r")
	commit, err := h.AppendBuffered(regionEntry("r", 1))
	if err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected close fsync failure")
	prev := walSyncFile
	walSyncFile = func(f *os.File, noSync bool) error { return injected }
	closeErr := w.Close()
	walSyncFile = prev

	if !errors.Is(closeErr, injected) {
		t.Fatalf("Close over failing fsync returned %v, want injected error", closeErr)
	}
	if err := commit(); !errors.Is(err, injected) {
		t.Fatalf("commit after failed Close fsync returned %v, want injected error — a nil ack here claims durability no fsync provided", err)
	}
}

// Close must wait for an in-flight commit round to settle before it
// fences the log: the round's acknowledgement then rests on its own
// fsync having completed, never on a closed fast-path assuming Close
// already ran one.
func TestSharedWALCloseWaitsForInflightCommitRound(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("r")

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	prev := walSyncFile
	walSyncFile = func(f *os.File, noSync bool) error {
		once.Do(func() { entered <- struct{}{} })
		<-release
		return syncFile(f, noSync)
	}
	defer func() { walSyncFile = prev }()

	appendDone := make(chan error, 1)
	go func() { appendDone <- h.Append(regionEntry("r", 1)) }()
	<-entered // the commit leader is mid-fsync

	closeDone := make(chan error, 1)
	go func() { closeDone <- w.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close completed (%v) while a commit round was mid-fsync", err)
	case <-time.After(100 * time.Millisecond):
		// Close is correctly parked behind the leader slot.
	}

	close(release)
	if err := <-appendDone; err != nil {
		t.Fatalf("append racing Close: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close after commit round settled: %v", err)
	}
}
