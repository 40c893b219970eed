package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"met/internal/kv"
)

func sortedEntries(n int) []kv.Entry {
	out := make([]kv.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, kv.Entry{
			Key:       fmt.Sprintf("key-%05d", i),
			Value:     []byte(fmt.Sprintf("value-%05d", i)),
			Timestamp: uint64(i + 1),
		})
	}
	return out
}

func TestSSTableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sst-1.sst")
	entries := sortedEntries(500)
	meta, err := writeSSTable(path, entries, 1<<10, Options{}.withDefaults(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(meta.Bytes) != st.Size() {
		t.Fatalf("meta.Bytes=%d, on-disk=%d", meta.Bytes, st.Size())
	}
	r, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Meta().Entries != 500 || r.Meta().MaxTS != 500 {
		t.Fatalf("meta = %+v", r.Meta())
	}
	if r.Meta().MinKey != "key-00000" || r.Meta().MaxKey != "key-00499" {
		t.Fatalf("key range = [%s, %s]", r.Meta().MinKey, r.Meta().MaxKey)
	}
	if r.NumBlocks() < 2 {
		t.Fatalf("blocks = %d, want several at 1KiB", r.NumBlocks())
	}
	// Walk every block and verify every entry came back intact.
	i := 0
	for bi := 0; bi < r.NumBlocks(); bi++ {
		b, err := r.LoadBlock(bi)
		if err != nil {
			t.Fatal(err)
		}
		if b.Entry(0).Key != r.FirstKey(bi) {
			t.Fatalf("block %d first key index mismatch", bi)
		}
		for j := 0; j < b.Len(); j++ {
			e, want := b.Entry(j), entries[i]
			if e.Key != want.Key || string(e.Value) != string(want.Value) || e.Timestamp != want.Timestamp {
				t.Fatalf("entry %d mangled: %+v", i, e)
			}
			i++
		}
	}
	if i != 500 {
		t.Fatalf("iterated %d entries", i)
	}
}

func TestSSTableEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sst-2.sst")
	if _, err := writeSSTable(path, nil, 1<<10, Options{}.withDefaults(), 0); err != nil {
		t.Fatal(err)
	}
	r, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() != 0 || r.Meta().Entries != 0 {
		t.Fatalf("empty table has %d blocks, %d entries", r.NumBlocks(), r.Meta().Entries)
	}
}

func TestSSTableCorruptBlockChecksum(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sst-3.sst")
	if _, err := writeSSTable(path, sortedEntries(100), 1<<10, Options{}.withDefaults(), 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first data block (past the 5-byte header).
	if _, err := f.WriteAt([]byte{0xff}, sstHeaderSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := openSSTable(path) // index/bloom/props are clean
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.LoadBlock(0); err == nil {
		t.Fatal("corrupt block loaded without error")
	}
}

// TestSSTableMalformedBlockWithGoodChecksum: a block whose CRC matches
// but whose payload does not parse (a writer bug, not bit rot) is
// refused by LoadBlock with kv.ErrCorrupt, not served.
func TestSSTableMalformedBlockWithGoodChecksum(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sst-5.sst")
	if _, err := writeSSTable(path, sortedEntries(100), 1<<10, Options{}.withDefaults(), 0); err != nil {
		t.Fatal(err)
	}
	r, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := r.index[0]
	r.Close()
	// Raise the block's entry count by one and re-seal it with a
	// matching CRC: the count now claims an entry the bytes do not hold.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[sp.off : sp.off+sp.length-4]
	if payload[0] >= 0x7f {
		t.Fatalf("first block holds %d entries; the test needs a one-byte count", payload[0])
	}
	payload[0]++
	binary.LittleEndian.PutUint32(raw[sp.off+sp.length-4:], crc32.Checksum(payload, castagnoli))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err = openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.LoadBlock(0); !errors.Is(err, kv.ErrCorrupt) {
		t.Fatalf("LoadBlock of a malformed block = %v, want kv.ErrCorrupt", err)
	}
	if _, err := r.LoadBlock(1); err != nil {
		t.Fatalf("LoadBlock of the next, intact block: %v", err)
	}
}

func TestSSTableUnlinkWhileOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sst-4.sst")
	if _, err := writeSSTable(path, sortedEntries(100), 1<<10, Options{}.withDefaults(), 0); err != nil {
		t.Fatal(err)
	}
	r, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// Compaction semantics: the unlinked file keeps serving reads until
	// the handle closes.
	b, err := r.LoadBlock(0)
	if err != nil {
		t.Fatalf("read after unlink: %v", err)
	}
	if b.Len() == 0 {
		t.Fatal("unlinked block empty")
	}
}

func TestBloomFilterBasics(t *testing.T) {
	b := newBloomFilter(1000, 10)
	for i := 0; i < 1000; i++ {
		b.add(fmt.Sprintf("present-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(fmt.Sprintf("present-%d", i)) {
			t.Fatalf("false negative on present-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	// 10 bits/key targets ~1%; allow generous slack.
	if fp > 500 {
		t.Fatalf("false positive rate %d/10000 is way over target", fp)
	}
	// Round trip.
	back, err := unmarshalBloom(b.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !back.mayContain("present-42") {
		t.Fatal("marshaled filter lost membership")
	}
}

// TestBloomNegativeGetReadsNoBlocks is the acceptance check: a Get for a
// key a flushed file cannot contain is answered by the bloom filter with
// zero data-block reads from disk.
func TestBloomNegativeGetReadsNoBlocks(t *testing.T) {
	dir := t.TempDir()
	// Dense filter so none of the fixed probe keys is a false positive
	// (at the default 10 bits/key ~1% of them would be, by design).
	backend, err := Open(dir, Options{BitsPerKey: 24})
	if err != nil {
		t.Fatal(err)
	}
	cfg := kv.Config{
		BlockBytes:  1 << 10,
		OpenBackend: func() (kv.StorageBackend, error) { return backend, nil },
	}
	s, err := kv.OpenStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 1000; i++ {
		if err := s.Put(fmt.Sprintf("key-%05d", i*2), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	infos := s.FileInfos()
	if len(infos) != 1 {
		t.Fatalf("files = %d, want 1", len(infos))
	}
	reader := backend.Reader(infos[0].ID)
	if reader == nil {
		t.Fatal("no reader for flushed file")
	}
	base := reader.BlockReads()

	// In-range keys (odd suffixes) that were never written: the sparse
	// index alone cannot reject them, only the bloom filter can.
	misses := 0
	for i := 0; i < 500; i++ {
		_, err := s.Get(fmt.Sprintf("key-%05d", i*2+1))
		if err != kv.ErrNotFound {
			t.Fatalf("expected ErrNotFound, got %v", err)
		}
		misses++
	}
	if got := reader.BlockReads() - base; got != 0 {
		t.Fatalf("negative Gets read %d data blocks, want 0", got)
	}
	if st := s.Stats(); st.FilterNegatives < int64(misses) {
		t.Fatalf("FilterNegatives = %d, want >= %d", st.FilterNegatives, misses)
	}

	// Sanity: a present key does read (or cache) a block.
	if _, err := s.Get("key-00000"); err != nil {
		t.Fatal(err)
	}
	if reader.BlockReads() == base {
		t.Fatal("positive Get read no block at all")
	}
}
