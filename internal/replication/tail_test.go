package replication

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"met/internal/durable"
	"met/internal/kv"
)

// tailRig is one primary region on a shared WAL whose sync rounds feed
// a replicator's tail shipper, replicating to one follower directory.
type tailRig struct {
	r       *Replicator
	w       *durable.WAL
	s       *kv.Store
	replica string
	next    int // next key index to write
}

const rigRegion = "region-a"

// newTailRig wires the rig. copy, when non-nil, replaces the SSTable
// copy for the test's duration.
func newTailRig(t *testing.T, copy func(src, dst string) (int64, error)) *tailRig {
	t.Helper()
	if copy != nil {
		copySSTable = copy
		t.Cleanup(func() { copySSTable = CopyFile })
	}
	base := t.TempDir()
	rig := &tailRig{r: New(nil), replica: filepath.Join(base, "replica")}
	t.Cleanup(rig.r.Close)
	w, err := durable.OpenWAL(filepath.Join(base, "wal"), durable.Options{KeepTail: true, OnSynced: rig.r.TailSynced})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	rig.w = w
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 1 << 20, // the test flushes explicitly
		BlockBytes:         1 << 10,
		MaxStoreFiles:      -1,
		WAL:                w.Region(rigRegion),
		OpenBackend:        durable.Opener(filepath.Join(base, "primary"), durable.Options{ExternalWAL: true}),
		Host:               kv.Host{OnFilesChanged: func() { rig.r.Notify(rigRegion) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	rig.s = s
	rig.r.Track(rigRegion, s.ExportFiles, func() []string { return []string{rig.replica} },
		func(from, to uint64) ([]kv.Entry, uint64) { return w.TailFrom(rigRegion, from, to) })
	return rig
}

// write puts n more acknowledged keys.
func (rig *tailRig) write(t *testing.T, n int) {
	t.Helper()
	for end := rig.next + n; rig.next < end; rig.next++ {
		if err := rig.s.Put(fmt.Sprintf("k%05d", rig.next), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

func (rig *tailRig) gens(t *testing.T) []uint64 {
	t.Helper()
	gens, err := durable.TailGens(rig.replica)
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

// verifyRecoverable opens a store the way failover does — the replica's
// SSTables plus every tail generation replayed over them — and asserts
// every acknowledged key reads back.
func (rig *tailRig) verifyRecoverable(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	for _, id := range replicaIDs(t, rig.replica) {
		if _, err := CopyFile(SSTablePath(rig.replica, id), SSTablePath(dir, id)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := kv.OpenStore(kv.Config{BlockBytes: 1 << 10, OpenBackend: durable.Opener(dir, durable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tail, _, err := durable.ReadTail(rig.replica)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyReplayed(tail); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rig.next; i++ {
		if _, err := s.Get(fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatalf("acknowledged key k%05d not recoverable from the follower (%d SSTables, %d tail records, generations %v): %v",
				i, len(replicaIDs(t, rig.replica)), len(tail), rig.gens(t), err)
		}
	}
}

// TestTailGenerationOutlivesPendingAndFailedCopy: a flush cuts a new
// tail generation, but the one before it — the only follower copy of
// the flushed records — stays on disk while the flush's SSTable copy is
// pending and after it failed, and goes once the copy lands.
func TestTailGenerationOutlivesPendingAndFailedCopy(t *testing.T) {
	// A copy announces itself on entered, waits for release, then fails
	// while failing is set.
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var failing atomic.Bool
	rig := newTailRig(t, func(src, dst string) (int64, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		if failing.Load() {
			return 0, errors.New("follower disk full")
		}
		return CopyFile(src, dst)
	})
	rig.write(t, 10)
	rig.r.Quiesce()
	if got := rig.gens(t); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("after the first burst: generations %v, want [1]", got)
	}

	if err := rig.s.Flush(); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker cut, and its SSTable copy is pending
	if got := rig.gens(t); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("copy pending: generations %v, want [1 2]", got)
	}
	rig.verifyRecoverable(t)

	failing.Store(true)
	close(release)
	rig.r.Quiesce()
	if st := rig.r.Stats(); st.FileFailures == 0 {
		t.Fatalf("failed copy not counted: %+v", st)
	}
	if got := rig.gens(t); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("copy failed: generations %v, want [1 2]", got)
	}
	rig.verifyRecoverable(t)

	failing.Store(false)
	rig.r.Quiesce()
	if got := rig.gens(t); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("copy landed: generations %v, want [2]", got)
	}
	if len(replicaIDs(t, rig.replica)) != 1 {
		t.Fatal("flushed SSTable not on the follower")
	}
	rig.verifyRecoverable(t)
}

// TestFailedTailAppendStartsNewGeneration: once an append to a
// generation fails, the shipper never appends to it again; the next
// ship starts a new generation holding the whole synced tail.
func TestFailedTailAppendStartsNewGeneration(t *testing.T) {
	rig := newTailRig(t, nil)
	rig.write(t, 5)
	rig.r.Quiesce()
	// Lose generation 1 under the shipper: its next append fails.
	if err := os.Remove(durable.TailGenPath(rig.replica, 1)); err != nil {
		t.Fatal(err)
	}
	rig.write(t, 5)
	rig.r.Quiesce()
	if st := rig.r.Stats(); st.TailFailures != 1 || st.Failures != 1 {
		t.Fatalf("failed append not counted once: %+v", st)
	}
	if got := rig.gens(t); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("generations %v, want a fresh [2] and no re-created 1", got)
	}
	tail, torn, err := durable.ReadTail(rig.replica)
	if err != nil || torn || len(tail) != 10 {
		t.Fatalf("new generation holds %d records (torn %v, err %v), want all 10", len(tail), torn, err)
	}
}

// TestTailGenerationsCoverUncopiedRecords: through failed SSTable
// copies, a failed append and several cuts, the follower's SSTables
// plus all its tail generations hold every acknowledged record; once
// the copies land, the superseded generations go and they still do.
func TestTailGenerationsCoverUncopiedRecords(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	rig := newTailRig(t, func(src, dst string) (int64, error) {
		if failing.Load() {
			return 0, errors.New("follower disk full")
		}
		return CopyFile(src, dst)
	})
	flush := func() {
		if err := rig.s.Flush(); err != nil {
			t.Fatal(err)
		}
		rig.r.Quiesce()
	}
	rig.write(t, 20)
	flush()
	rig.write(t, 20)
	gens := rig.gens(t)
	if err := os.Remove(durable.TailGenPath(rig.replica, gens[len(gens)-1])); err != nil {
		t.Fatal(err)
	}
	rig.write(t, 20)
	flush()
	rig.write(t, 20)
	rig.r.Quiesce()
	if st := rig.r.Stats(); st.FileFailures < 2 || st.TailFailures != 1 {
		t.Fatalf("injected failures not all counted: %+v", st)
	}
	rig.verifyRecoverable(t)

	failing.Store(false)
	rig.r.Quiesce()
	if got := rig.gens(t); len(got) != 1 {
		t.Fatalf("after the copies landed: generations %v, want only the newest", got)
	}
	rig.verifyRecoverable(t)
}
