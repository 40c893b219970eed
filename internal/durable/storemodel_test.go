package durable

// FuzzStoreModel is the differential test of kv.Store on the durable
// backend: a byte string decodes to a schedule of engine operations,
// which runs against a real store (tiny blocks, ~1 KB memstore, a soft
// file threshold of 2–3, so flush, block and compaction boundaries are
// crossed constantly) and against a map-of-versions model; every Get,
// every Scan and the logical clock are compared after each step, a
// visiting scan (ScanFunc) stopped at a fuzzed row must have seen the
// model's prefix, and a Scan's rows are checked again after later steps
// (Gets, flushes, compactions) have churned a block cache of two or
// three blocks, which recycles evicted blocks' buffers on every miss. Unlike
// kv's in-memory TestStoreMatchesModel it covers the paths that change
// how a write enters the engine — ImportEntries, ApplyReplayed (with
// records at or below the clock) — and close-and-reopen on the same
// directory. The seeds below run on every plain `go test`; CI fuzzes
// the target briefly on each PR.

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"met/internal/kv"
)

// Schedule opcodes (opcode byte modulo modelOps). Puts and Gets take
// several slots so a random byte string is mostly traffic.
const (
	opPut      = 0 // ..2: key, value length
	opDelete   = 3 // key
	opGet      = 4 // ..5: key
	opScan     = 6 // start key, limit
	opFlush    = 7
	opCompact  = 8  // bit 0: major
	opImport   = 9  // count, then (key, value length) each
	opReplay   = 10 // how far below the clock to start, count, then (key, value length) each, then a gap each
	opReopen   = 11
	opRecheck  = 12 // the last Scan's rows, held since
	opScanStop = 13 // start key, the row whose visit returns false
	modelOps   = 14

	modelKeys   = 16
	maxModelOps = 4000 // bounds one fuzz execution
)

// storeModel runs one schedule against a store and its model.
type storeModel struct {
	s      *kv.Store
	reopen func() *kv.Store
	// prefix scopes the keys this run owns; with shared set another
	// goroutine is writing the same store under a different prefix, so
	// the steps that need the whole store to themselves (reopen, replay,
	// the clock comparison) are skipped.
	prefix string
	shared bool

	data     []byte
	versions map[string][]kv.Entry
	// held is the last Scan's rows and heldWant the values the model
	// gave them then: Scan's values are the caller's copies, and must
	// not change while the caller holds them, though the blocks they
	// were copied from are recycled.
	held      []kv.Entry
	heldWant  []kv.Entry
	clock     uint64
	step      int
	mutations int
}

func (m *storeModel) next() (byte, bool) {
	if len(m.data) == 0 {
		return 0, false
	}
	b := m.data[0]
	m.data = m.data[1:]
	return b, true
}

func (m *storeModel) key(b byte) string { return fmt.Sprintf("%s%02d", m.prefix, b%modelKeys) }

// value is unique per step, so a stale read can never pass for a fresh
// one; the length byte varies entry sizes across block boundaries.
func (m *storeModel) value(n byte) []byte {
	v := []byte(fmt.Sprintf("%s%d.", m.prefix, m.step))
	return append(v, bytes.Repeat([]byte{'x'}, int(n%48))...)
}

// newest returns the version a read must observe for key.
func (m *storeModel) newest(key string) (kv.Entry, bool) {
	var best kv.Entry
	found := false
	for _, e := range m.versions[key] {
		if !found || e.Timestamp >= best.Timestamp {
			best, found = e, true
		}
	}
	return best, found && !best.Tombstone
}

func (m *storeModel) record(e kv.Entry) {
	m.versions[e.Key] = append(m.versions[e.Key], e)
	if e.Timestamp > m.clock {
		m.clock = e.Timestamp
	}
	m.mutations++
}

func (m *storeModel) checkGet(key string) error {
	got, err := m.s.Get(key)
	want, live := m.newest(key)
	switch {
	case live && (err != nil || !bytes.Equal(got, want.Value)):
		return fmt.Errorf("Get(%q) = %q, %v; want %q (ts %d)", key, got, err, want.Value, want.Timestamp)
	case !live && err != kv.ErrNotFound:
		return fmt.Errorf("Get(%q) = %q, %v; want ErrNotFound", key, got, err)
	}
	return nil
}

// liveFrom returns the model's live rows with key >= start, up to limit
// (< 0: all).
func (m *storeModel) liveFrom(start string, limit int) []kv.Entry {
	var want []kv.Entry
	for key := range m.versions {
		if e, live := m.newest(key); live && key >= start {
			want = append(want, e)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	if limit >= 0 && len(want) > limit {
		want = want[:limit]
	}
	return want
}

// compareRows checks a scan's rows against the model's.
func (m *storeModel) compareRows(what string, got, want []kv.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s returned %d rows, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i, e := range got {
		w := want[i]
		if e.Key != w.Key || !bytes.Equal(e.Value, w.Value) || (!m.shared && e.Timestamp != w.Timestamp) {
			return fmt.Errorf("%s[%d] = %v %q, want %v %q", what, i, e, e.Value, w, w.Value)
		}
	}
	return nil
}

func (m *storeModel) checkScan(start string, limit int) error {
	// The prefix bounds the scan to this run's keys ('~' sorts after
	// every digit), which is what lets two writers share a store.
	got, err := m.s.Scan(start, m.prefix+"~", limit)
	if err != nil {
		return fmt.Errorf("Scan(%q, %d): %w", start, limit, err)
	}
	want := m.liveFrom(start, limit)
	if err := m.compareRows(fmt.Sprintf("Scan(%q, %d)", start, limit), got, want); err != nil {
		return err
	}
	m.held, m.heldWant = got, want
	return nil
}

// checkScanStop visits from start until fn returns false on row stop,
// copying each row inside its visit: the rows seen must be the model's
// prefix.
func (m *storeModel) checkScanStop(start string, stop int) error {
	var got []kv.Entry
	err := m.s.ScanFunc(start, m.prefix+"~", -1, nil, func(e kv.Entry) bool {
		e.Value = bytes.Clone(e.Value)
		got = append(got, e)
		return len(got) <= stop
	})
	if err != nil {
		return fmt.Errorf("ScanFunc(%q) stopped at %d: %w", start, stop, err)
	}
	return m.compareRows(fmt.Sprintf("ScanFunc(%q) stopped at %d", start, stop), got, m.liveFrom(start, stop+1))
}

// recheck compares the held Scan rows with what the model gave them
// when they were scanned.
func (m *storeModel) recheck() error {
	for i, e := range m.held {
		if w := m.heldWant[i]; !bytes.Equal(e.Value, w.Value) {
			return fmt.Errorf("held Scan row %d (%s) now reads %q, scanned as %q", i, e.Key, e.Value, w.Value)
		}
	}
	return nil
}

// run interprets the schedule until the bytes run out, returning the
// first mismatch between the store and the model.
func (m *storeModel) run() error {
	for m.step = 1; m.step <= maxModelOps; m.step++ {
		op, ok := m.next()
		if !ok {
			break
		}
		a, _ := m.next()
		b, _ := m.next()
		err := m.apply(op%modelOps, a, b)
		if got := m.s.MaxTimestamp(); err == nil && !m.shared && got != m.clock {
			err = fmt.Errorf("MaxTimestamp = %d, model clock %d", got, m.clock)
		}
		if err != nil {
			return fmt.Errorf("step %d (op %d): %w", m.step, op%modelOps, err)
		}
	}
	return m.checkScan(m.prefix, -1)
}

func (m *storeModel) apply(op, a, b byte) error {
	switch op {
	case opPut, opPut + 1, opPut + 2:
		e := kv.Entry{Key: m.key(a), Value: m.value(b), Timestamp: m.clock + 1}
		if err := m.s.Put(e.Key, e.Value); err != nil {
			return err
		}
		m.record(e)
	case opDelete:
		if err := m.s.Delete(m.key(a)); err != nil {
			return err
		}
		m.record(kv.Entry{Key: m.key(a), Tombstone: true, Timestamp: m.clock + 1})
	case opGet, opGet + 1:
		return m.checkGet(m.key(a))
	case opScan:
		return m.checkScan(m.key(a), int(b%6)-1)
	case opFlush:
		return m.s.Flush()
	case opCompact:
		return m.s.Compact(a&1 == 1)
	case opImport:
		// Fresh writes: the engine re-stamps them in order.
		batch := m.batch(int(a%6) + 1)
		if err := m.s.ImportEntries(batch); err != nil {
			return err
		}
		for _, e := range batch {
			e.Timestamp = m.clock + 1
			m.record(e)
		}
	case opReplay:
		if m.shared {
			return nil
		}
		// Recovered records keep their timestamps, ascending with gaps of
		// one or two; the batch starts up to three ticks below the clock,
		// so its head is already present and must be skipped.
		ts := m.clock - min(uint64(a%4), m.clock)
		batch := m.batch(int(b%6) + 1)
		want := 0
		for i := range batch {
			gap, _ := m.next()
			ts += 1 + uint64(gap%2)
			batch[i].Timestamp = ts
			if ts > m.clock {
				want++
			}
		}
		applied, err := m.s.ApplyReplayed(batch)
		if err != nil || applied != want {
			return fmt.Errorf("ApplyReplayed = %d, %v; want %d applied", applied, err, want)
		}
		for _, e := range batch {
			if e.Timestamp > m.clock {
				m.record(e)
			}
		}
	case opReopen:
		if m.shared {
			return nil
		}
		m.s.Close()
		m.s = m.reopen()
		for k := 0; k < modelKeys; k++ {
			if err := m.checkGet(m.key(byte(k))); err != nil {
				return err
			}
		}
	case opRecheck:
		return m.recheck()
	case opScanStop:
		return m.checkScanStop(m.key(a), int(b%8))
	}
	return nil
}

// batch decodes n (key, value length) records; a length that is a
// multiple of 8 makes the record a tombstone.
func (m *storeModel) batch(n int) []kv.Entry {
	out := make([]kv.Entry, 0, n)
	for i := 0; i < n; i++ {
		k, _ := m.next()
		l, _ := m.next()
		e := kv.Entry{Key: m.key(k)}
		if l%8 == 0 {
			e.Tombstone = true
		} else {
			e.Value = m.value(l)
		}
		out = append(out, e)
	}
	return out
}

// modelStoreOpener returns the open-on-dir function a schedule's first
// byte configures: 128/192/256-byte blocks, a 1 KB memstore, a soft
// file threshold of 2 or 3 (bit 2) and, with bit 3 set, a block cache
// of two or three blocks (bit 4) instead of the default, so that misses
// evict. The private log runs with NoSync — the schedules close
// cleanly, so fsync would only slow the fuzzer down.
func modelStoreOpener(t *testing.T, dir string, cfg byte) func() *kv.Store {
	blockBytes := 128 + 64*int(cfg%3)
	var cacheBytes int
	if cfg&8 != 0 {
		cacheBytes = (2 + int(cfg>>4)&1) * blockBytes
	}
	return func() *kv.Store {
		s, err := kv.OpenStore(kv.Config{
			MemstoreFlushBytes: 1 << 10,
			BlockBytes:         blockBytes,
			BlockCacheBytes:    cacheBytes,
			MaxStoreFiles:      2 + int(cfg>>2)&1,
			OpenBackend:        Opener(dir, Options{NoSync: true, SegmentBytes: 2 << 10}),
		})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return s
	}
}

func runStoreModel(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	open := modelStoreOpener(t, t.TempDir(), data[0])
	m := &storeModel{s: open(), reopen: open, prefix: "k", data: data[1:], versions: make(map[string][]kv.Entry)}
	defer func() { m.s.Close() }()
	if err := m.run(); err != nil {
		t.Fatal(err)
	}
}

// sched builds seed schedules op by op.
type sched []byte

func (s sched) op(code, a, b byte) sched { return append(s, code, a, b) }

func (s sched) puts(n, firstKey, keyStride, vlen int) sched {
	for i := 0; i < n; i++ {
		s = s.op(opPut, byte(firstKey+i*keyStride), byte(vlen+i))
	}
	return s
}

func storeModelSeeds() map[string][]byte {
	// One key rewritten inside a single memstore until its versions
	// overflow a 128-byte block (the PR 16 stale-Get schedule), then read
	// from the flushed file, and again after a reopen.
	straddle := sched{0}.puts(14, 5, 0, 24).
		op(opFlush, 0, 0).op(opGet, 5, 0).op(opScan, 5, 2).
		op(opReopen, 0, 0).op(opGet, 5, 0)

	// Write churn across every key with deletes, reads and both
	// compaction kinds: dozens of threshold flushes and self-triggered
	// compactions.
	churn := sched{4 | 1}
	for round := 0; round < 12; round++ {
		churn = churn.puts(24, round, 3, 10+round).
			op(opDelete, byte(round*5), 0).op(opGet, byte(round*5), 0).
			op(opScan, byte(round), byte(round)).op(opScanStop, byte(round*3), byte(round)).
			op(opCompact, byte(round), 0)
	}
	churn = churn.op(opReopen, 0, 0).op(opScan, 0, 0)

	// Every way a write enters the engine, around reopen: imports with
	// tombstones, replay batches whose head sits at or below the clock,
	// a replay straight after recovery.
	entry := sched{2}.puts(6, 0, 1, 30)
	for round := 0; round < 10; round++ {
		entry = append(entry.op(opImport, 4, byte(round)), 1, 8, 2, 17, 3, 40, 4, 16, 5, 23)
		entry = append(entry.op(opReplay, byte(round), 3), 1, 9, 6, 8, 7, 30, 8, 31, 0, 1, 1, 0)
		entry = entry.op(opGet, 1, 0).op(opGet, 6, 0).op(opScan, 0, 0)
		if round%3 == 2 {
			entry = entry.op(opReopen, 0, 0)
			entry = append(entry.op(opReplay, 3, 1), 2, 12, 3, 13, 0, 1)
			entry = entry.op(opCompact, 1, 0).op(opFlush, 0, 0)
		}
	}
	// A three-block cache under rewrites, reads of every key, both
	// compaction kinds and a reopen: each Scan's rows are held and
	// re-checked after the Gets that evicted and recycled blocks.
	evict := sched{8 | 16 | 4}
	for round := 0; round < 6; round++ {
		evict = evict.puts(32, round, 1, 30+round).op(opFlush, 0, 0).
			op(opScan, byte(round), 0).op(opScanStop, byte(round), byte(round+2))
		for k := 0; k < modelKeys; k++ {
			evict = evict.op(opGet, byte(k+round), 0)
		}
		evict = evict.op(opRecheck, 0, 0).op(opCompact, byte(round), 0).
			op(opGet, byte(round), 0).op(opRecheck, 0, 0)
		if round%2 == 1 {
			evict = evict.op(opReopen, 0, 0).op(opRecheck, 0, 0)
		}
	}
	return map[string][]byte{"straddle": straddle, "churn": churn, "entry": entry, "evict": evict}
}

func FuzzStoreModel(f *testing.F) {
	for _, seed := range storeModelSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runStoreModel)
}

// TestStoreModelTwoWriters runs two schedules concurrently against one
// store, each on its own key prefix with its own model, so a write
// path that loses, duplicates or misorders a mutation under contention
// shows up as a model mismatch (and a data race as a -race failure).
// Timestamps are dense, so the final clock must equal the total number
// of mutations the two runs made.
func TestStoreModelTwoWriters(t *testing.T) {
	seeds := storeModelSeeds()
	open := modelStoreOpener(t, t.TempDir(), 1)
	s := open()
	defer s.Close()
	runs := []*storeModel{
		{s: s, shared: true, prefix: "a", data: seeds["churn"][1:], versions: make(map[string][]kv.Entry)},
		{s: s, shared: true, prefix: "b", data: seeds["entry"][1:], versions: make(map[string][]kv.Entry)},
	}
	var wg sync.WaitGroup
	for _, m := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.run(); err != nil {
				t.Errorf("writer %q: %v", m.prefix, err)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, m := range runs {
		total += m.mutations
	}
	if got := s.MaxTimestamp(); got != uint64(total) {
		t.Fatalf("MaxTimestamp = %d after %d mutations", got, total)
	}
}
