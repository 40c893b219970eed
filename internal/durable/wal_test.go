package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"met/internal/kv"
)

func testEntry(i int) kv.Entry {
	return kv.Entry{
		Key:       fmt.Sprintf("key-%04d", i),
		Value:     []byte(fmt.Sprintf("value-%04d", i)),
		Timestamp: uint64(i),
	}
}

// mustReplay returns the records h's replay recovers.
func mustReplay(t *testing.T, h *RegionLog) []kv.Entry {
	t.Helper()
	entries, err := h.Replay()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("")
	for i := 1; i <= 10; i++ {
		if err := h.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Append(kv.Entry{Key: "dead", Timestamp: 11, Tombstone: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
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
	if report.Torn {
		t.Fatalf("clean log reported torn at %s", report.TornSegment)
	}
	if len(entries) != 11 {
		t.Fatalf("replayed %d entries, want 11", len(entries))
	}
	for i := 1; i <= 10; i++ {
		e := entries[i-1]
		if e.Key != fmt.Sprintf("key-%04d", i) || string(e.Value) != fmt.Sprintf("value-%04d", i) || e.Timestamp != uint64(i) {
			t.Fatalf("entry %d mangled: %+v", i, e)
		}
	}
	if last := entries[10]; !last.Tombstone || last.Key != "dead" {
		t.Fatalf("tombstone mangled: %+v", last)
	}
}

// activeSegment returns the newest wal segment file in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	last := paths[0]
	for _, p := range paths {
		if p > last {
			last = p
		}
	}
	return last
}

func TestWALTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("")
	for i := 1; i <= 5; i++ {
		if err := h.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Hard kill: no Close. Simulate a crash mid-write by appending a
	// frame header that promises more payload than was written.
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{100, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3} // claims 100 bytes, has 3
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	entries, report, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(entries) != 5 {
		t.Fatalf("replayed %d entries, want the 5 intact ones", len(entries))
	}
}

func TestWALCorruptCRCMidLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("")
	for i := 1; i <= 3; i++ {
		if err := h.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second record: replay must keep
	// record 1 and stop, dropping records 2 and 3.
	seg := activeSegment(t, dir)
	frame1 := encodeRecord("", testEntry(1), false)
	off := int64(walHeaderSize + len(frame1) + frameHeaderSize + 1)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	entries, report, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Torn {
		t.Fatal("mid-log corruption not reported")
	}
	if len(entries) != 1 || entries[0].Timestamp != 1 {
		t.Fatalf("want exactly the pre-corruption prefix, got %d entries", len(entries))
	}
}

func TestWALEmptySegments(t *testing.T) {
	dir := t.TempDir()
	// Open and close twice with no records: two empty sealed segments.
	for i := 0; i < 2; i++ {
		w, err := OpenWAL(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("")
	if err := h.Append(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	entries, report, err := w.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if report.Torn || len(entries) != 1 {
		t.Fatalf("replay across empty segments: %d entries, torn=%v", len(entries), report.Torn)
	}
	w.Close()
}

func TestWALReplayOrderingAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 64}) // rotate almost every record
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("")
	const n = 50
	for i := 1; i <= n; i++ {
		if err := h.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 5 {
		t.Fatalf("expected many segments, got %d", w.SegmentCount())
	}
	w.Close()

	w2, err := OpenWAL(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	entries := mustReplay(t, w2.Region(""))
	if len(entries) != n {
		t.Fatalf("replayed %d, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.Timestamp != uint64(i+1) {
			t.Fatalf("replay out of order at %d: ts=%d", i, e.Timestamp)
		}
	}
}

func TestWALTruncateWholeSegments(t *testing.T) {
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
	before := w.SegmentCount()
	// A flush made everything with ts <= 10 durable elsewhere; the
	// segments fully below the bar disappear, anything holding ts > 10
	// stays whole.
	h.Truncate(10)
	after := w.SegmentCount()
	if after >= before {
		t.Fatalf("truncate freed no segments (%d -> %d)", before, after)
	}
	entries := mustReplay(t, h)
	seen := map[uint64]bool{}
	for _, e := range entries {
		seen[e.Timestamp] = true
	}
	for ts := uint64(11); ts <= 20; ts++ {
		if !seen[ts] {
			t.Fatalf("truncate lost unflushed entry ts=%d", ts)
		}
	}
}

func TestWALTruncateAfterPartialFlushKeepsMixedSegment(t *testing.T) {
	dir := t.TempDir()
	// One big segment: ts 1..10 all live in the active segment, so a
	// flush covering only ts <= 5 must delete nothing.
	w, err := OpenWAL(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Region("")
	for i := 1; i <= 10; i++ {
		if err := h.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Truncate(5)
	entries := mustReplay(t, h)
	if len(entries) != 10 {
		t.Fatalf("partial-flush truncate dropped records: %d left, want all 10", len(entries))
	}
	// Once the flush covers the whole segment, it is rotated and deleted.
	h.Truncate(10)
	if n := len(mustReplay(t, h)); n != 0 {
		t.Fatalf("full truncate left %d records", n)
	}
}

func TestWALGroupCommitSharesOneSync(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h := w.Region("")
	var commits []func() error
	for i := 1; i <= 5; i++ {
		c, err := h.AppendBuffered(testEntry(i))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
	}
	// Committing the newest record fsyncs once and covers all five.
	if err := commits[4](); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncRounds(); got != 1 {
		t.Fatalf("sync rounds = %d, want 1", got)
	}
	for i, c := range commits[:4] {
		if err := c(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := w.SyncRounds(); got != 1 {
		t.Fatalf("older commits triggered extra syncs: %d rounds", got)
	}
}

func TestWALConcurrentAppendDurability(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Region("")
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := kv.Entry{
					Key:       fmt.Sprintf("w%d-%d", g, i),
					Value:     []byte("v"),
					Timestamp: uint64(g*per + i + 1),
				}
				if err := h.Append(e); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if n := len(mustReplay(t, w2.Region(""))); n != workers*per {
		t.Fatalf("replayed %d, want %d", n, workers*per)
	}
}
