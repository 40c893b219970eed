package replication

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"met/internal/durable"
	"met/internal/kv"
	"met/internal/testutil"
)

// openDurableStore builds a small durable store that flushes often.
func openDurableStore(t *testing.T, dir string, host kv.Host) *kv.Store {
	t.Helper()
	s, err := kv.OpenStore(kv.Config{
		MemstoreFlushBytes: 2 << 10,
		BlockBytes:         1 << 10,
		MaxStoreFiles:      -1, // no automatic compaction; tests drive it
		OpenBackend:        durable.Opener(dir, durable.Options{}),
		Host:               host,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func fill(t *testing.T, s *kv.Store, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := s.Put(fmt.Sprintf("k%05d", i), []byte("0123456789abcdefghijklmnopqrstuv")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// notifies is the host of a store whose file-stack changes notify r
// under one region name.
func notifies(r *Replicator, region string) kv.Host {
	return kv.Host{OnFilesChanged: func() { r.Notify(region) }}
}

// track registers a store with a replicator under one region name and
// dest.
func track(r *Replicator, s *kv.Store, region string, dests ...string) {
	r.Track(region, s.ExportFiles, func() []string { return dests }, nil)
}

// replicaIDs reads the SSTable IDs in dir (empty when absent).
func replicaIDs(t *testing.T, dir string) []uint64 {
	t.Helper()
	ids, err := ListSSTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func storeIDs(s *kv.Store) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, fi := range s.FileInfos() {
		out[fi.ID] = true
	}
	return out
}

// TestReplicatorMirrorsFlushesAndCompactions: every flush ships its
// SSTable; a compaction ships the merged file and retires the inputs,
// leaving the replica directory exactly equal to the primary stack.
func TestReplicatorMirrorsFlushesAndCompactions(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	replica := filepath.Join(base, "replica")
	r := New(nil)
	defer r.Close()
	s := openDurableStore(t, primary, notifies(r, "region-a"))
	track(r, s, "region-a", replica)

	for round := 0; round < 3; round++ {
		fill(t, s, round*100, (round+1)*100)
	}
	r.Quiesce()
	want := storeIDs(s)
	got := replicaIDs(t, replica)
	if len(got) != len(want) {
		t.Fatalf("replica holds %d files, primary %d", len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("replica holds file %d the primary lacks", id)
		}
	}

	// Compact: the merged file ships, the retired inputs disappear.
	if err := s.Compact(true); err != nil {
		t.Fatal(err)
	}
	r.Quiesce()
	got = replicaIDs(t, replica)
	want = storeIDs(s)
	if len(got) != 1 || len(want) != 1 || !want[got[0]] {
		t.Fatalf("after compaction: replica %v, primary %v", got, want)
	}
	st := r.Stats()
	if st.FilesShipped < 4 || st.FilesRetired < 3 {
		t.Fatalf("stats did not account shipping: %+v", st)
	}

	// The replica files are byte-identical to the primary's.
	pPath := SSTablePath(primary, got[0])
	rPath := SSTablePath(replica, got[0])
	pb, err := os.ReadFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(rPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(rb) {
		t.Fatal("replica SSTable differs from primary")
	}
}

// TestReplicaDirectoryOpensAsStore: a store opened over a directory
// seeded with replica SSTables serves every replicated row — the
// property RecoverServer depends on.
func TestReplicaDirectoryOpensAsStore(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	replica := filepath.Join(base, "replica")
	r := New(nil)
	defer r.Close()
	s := openDurableStore(t, primary, notifies(r, "region-a"))
	track(r, s, "region-a", replica)
	fill(t, s, 0, 200)
	r.Quiesce()

	recovered, err := kv.OpenStore(kv.Config{
		BlockBytes:  1 << 10,
		OpenBackend: durable.Opener(replica, durable.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for i := 0; i < 200; i++ {
		if _, err := recovered.Get(fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatalf("replicated row k%05d unreadable from replica: %v", i, err)
		}
	}
	if got, want := recovered.MaxTimestamp(), s.MaxTimestamp(); got != want {
		t.Fatalf("replica clock %d != primary clock %d after full flush", got, want)
	}
}

// TestReplicatorCleansTempDebris: a .tmp file (a copy killed mid-ship)
// is removed at the next reconciliation and never shadows a real copy.
func TestReplicatorCleansTempDebris(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	replica := filepath.Join(base, "replica")
	if err := os.MkdirAll(replica, 0o755); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(replica, "sst-0000000000000042.sst.tmp")
	if err := os.WriteFile(debris, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(nil)
	defer r.Close()
	s := openDurableStore(t, primary, notifies(r, "region-a"))
	track(r, s, "region-a", replica)
	fill(t, s, 0, 50)
	r.Quiesce()
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("temp debris survived reconciliation: %v", err)
	}
	if got := replicaIDs(t, replica); len(got) == 0 {
		t.Fatal("no SSTable shipped")
	}
}

// TestReplicatorFansOutToMultipleFollowers: replication factor 3 means
// two follower directories, each a complete copy.
func TestReplicatorFansOutToMultipleFollowers(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	f1 := filepath.Join(base, "f1")
	f2 := filepath.Join(base, "f2")
	r := New(nil)
	defer r.Close()
	s := openDurableStore(t, primary, notifies(r, "region-a"))
	track(r, s, "region-a", f1, f2)
	fill(t, s, 0, 100)
	r.Quiesce()
	want := len(storeIDs(s))
	if got := len(replicaIDs(t, f1)); got != want {
		t.Fatalf("follower 1 holds %d files, want %d", got, want)
	}
	if got := len(replicaIDs(t, f2)); got != want {
		t.Fatalf("follower 2 holds %d files, want %d", got, want)
	}
}

// TestUntrackStopsShipping: an untracked region's queued notifications
// are dropped, and new flushes no longer ship.
func TestUntrackStopsShipping(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	replica := filepath.Join(base, "replica")
	r := New(nil)
	defer r.Close()
	s := openDurableStore(t, primary, notifies(r, "region-a"))
	track(r, s, "region-a", replica)
	fill(t, s, 0, 50)
	r.Quiesce()
	before := len(replicaIDs(t, replica))
	r.Untrack("region-a")
	fill(t, s, 50, 150)
	r.Quiesce()
	if got := len(replicaIDs(t, replica)); got != before {
		t.Fatalf("untracked region kept shipping: %d -> %d files", before, got)
	}
}

// countingBudget records background byte accounting.
type countingBudget struct {
	mu    sync.Mutex
	bytes int64
}

func (b *countingBudget) WaitBackground(n int) {
	b.mu.Lock()
	b.bytes += int64(n)
	b.mu.Unlock()
}
func (b *countingBudget) NoteForeground(int) {}

// TestReplicatorChargesBudget: every shipped byte passes through the
// shared I/O budget as background traffic.
func TestReplicatorChargesBudget(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	replica := filepath.Join(base, "replica")
	budget := &countingBudget{}
	r := New(budget)
	defer r.Close()
	s := openDurableStore(t, primary, notifies(r, "region-a"))
	track(r, s, "region-a", replica)
	fill(t, s, 0, 100)
	r.Quiesce()
	st := r.Stats()
	budget.mu.Lock()
	charged := budget.bytes
	budget.mu.Unlock()
	if charged == 0 || charged != st.BytesShipped {
		t.Fatalf("budget charged %d bytes, stats say %d shipped", charged, st.BytesShipped)
	}
}

// TestInMemoryStoreIsReplicationExempt: a store on the memory backend
// exports nothing and the replicator treats it as a no-op, not as an
// empty primary to mirror (which would delete real replica files).
func TestInMemoryStoreIsReplicationExempt(t *testing.T) {
	base := t.TempDir()
	replica := filepath.Join(base, "replica")
	if err := os.MkdirAll(replica, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(replica, "sst-0000000000000007.sst")
	if err := os.WriteFile(keep, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(nil)
	defer r.Close()
	s := kv.NewStore(kv.Config{MemstoreFlushBytes: 1 << 10, Host: notifies(r, "region-a")})
	defer s.Close()
	track(r, s, "region-a", replica)
	r.Notify("region-a")
	r.Quiesce()
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("replication-exempt store clobbered replica dir: %v", err)
	}
}

// TestFailuresSplitByKind: a failed tail ship and a failed SSTable
// reconcile land in their own counters, Failures stays their total, and
// LastFailure keeps the newest one's region and error text. The
// injector fails each region's first ship by pointing it at a
// directory that cannot be created; the retry then goes through.
func TestFailuresSplitByKind(t *testing.T) {
	base := t.TempDir()
	if err := os.WriteFile(filepath.Join(base, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(base, "file", "replica") // under a regular file
	good := filepath.Join(base, "replica")
	inj := testutil.NewInjector()
	dests := func(region string) func() []string {
		return func() []string {
			if inj.Err(region) != nil {
				return []string{blocked}
			}
			return []string{good}
		}
	}
	down := fmt.Errorf("follower disk down")
	r := New(nil)
	defer r.Close()

	r.Track("hot", func() ([]kv.ExportedFile, bool) { return nil, false }, dests("hot"),
		func(_, _ uint64) ([]kv.Entry, uint64) {
			return []kv.Entry{{Key: "k", Value: []byte("v"), Timestamp: 1}}, 2
		})
	inj.FailOp("hot", down, 1)
	r.TailSynced(map[string]bool{"hot": true})
	r.Quiesce()
	st := r.Stats()
	if st.TailFailures != 1 || st.FileFailures != 0 || st.Failures != 1 {
		t.Fatalf("after a failed tail ship: %+v", st)
	}
	if !strings.HasPrefix(st.LastFailure, "hot: ") || !strings.Contains(st.LastFailure, "not a directory") {
		t.Fatalf("LastFailure = %q, want hot's mkdir error", st.LastFailure)
	}

	s := openDurableStore(t, filepath.Join(base, "primary"), kv.Host{})
	fill(t, s, 0, 50)
	r.Track("cold", s.ExportFiles, dests("cold"), nil)
	inj.FailOp("cold", down, 1)
	r.Notify("cold")
	r.Quiesce()
	st = r.Stats()
	if st.TailFailures != 1 || st.FileFailures != 1 || st.Failures != 2 {
		t.Fatalf("after a failed SSTable reconcile: %+v", st)
	}
	if !strings.HasPrefix(st.LastFailure, "cold: ") || !strings.Contains(st.LastFailure, "not a directory") {
		t.Fatalf("LastFailure = %q, want cold's mkdir error", st.LastFailure)
	}

	r.Notify("cold")
	r.Quiesce()
	if st = r.Stats(); st.Failures != 2 || len(replicaIDs(t, good)) == 0 {
		t.Fatalf("retry did not ship cleanly: %+v, replica files %v", st, replicaIDs(t, good))
	}
}
