package durable

import (
	"path/filepath"
	"testing"
)

// walFileCount counts the on-disk segment files in dir.
func walFileCount(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(paths)
}

// TestWALDropAbsentReclaimsOrphanRegions is the cold-start pinning bug
// in miniature: region A's records survive in a reopened log, A never
// re-registers (it moved away before the stop), so its zero flush mark
// pins the segment no matter how often the live region B flushes —
// until DropAbsent voids it.
func TestWALDropAbsentReclaimsOrphanRegions(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{KeepTail: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Region("A"), w.Region("B")
	for i := 1; i <= 5; i++ {
		if err := a.Append(regionEntry("A", i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(regionEntry("B", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: only B re-registers. A's records are back in the
	// (sealed) segment scan and in the shippable tail.
	w2, err := OpenWAL(dir, Options{KeepTail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	b2 := w2.Region("B")
	if got := syncedTail(w2, "A"); len(got) != 5 {
		t.Fatalf("reopened tail for orphan A: %d records, want 5", len(got))
	}

	// Flushing B alone cannot reclaim anything: the segment is pinned by
	// A's records and A's flush clock will never advance.
	b2.Truncate(5)
	if n := walFileCount(t, dir); n < 2 {
		t.Fatalf("segment reclaimed while still pinned by orphan region: %d files", n)
	}

	dropped, err := w2.DropAbsent(map[string]bool{"B": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "A" {
		t.Fatalf("DropAbsent dropped %v, want [A]", dropped)
	}
	if got := syncedTail(w2, "A"); len(got) != 0 {
		t.Fatalf("orphan A still in shippable tail after DropAbsent: %d records", len(got))
	}
	// B's records were already truncated, so with A voided every old
	// segment is reclaimable; only the fresh active segment remains.
	if n := walFileCount(t, dir); n != 1 {
		t.Fatalf("after DropAbsent: %d segment files on disk, want 1", n)
	}
	// Idempotent: the marker is durable, a second pass finds nothing.
	if dropped, err := w2.DropAbsent(map[string]bool{"B": true}); err != nil || len(dropped) != 0 {
		t.Fatalf("second DropAbsent: %v, %v; want none", dropped, err)
	}

	// The marker is durable: a further restart must not resurrect A.
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(dir, Options{KeepTail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := syncedTail(w3, "A"); len(got) != 0 {
		t.Fatalf("orphan A resurrected across restart: %d records", len(got))
	}
	if entries, err := w3.Region("A").Replay(); err != nil || len(entries) != 0 {
		t.Fatalf("orphan A replays %d entries after drop (err %v), want 0", len(entries), err)
	}
}
