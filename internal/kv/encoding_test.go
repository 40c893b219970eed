package kv

import (
	"bytes"
	"testing"
	"testing/quick"

	"met/internal/sim"
)

// parseBlock indexes payload into a new block with no recycle hook.
func parseBlock(payload []byte) (*Block, error) {
	b := new(Block)
	if err := b.Parse(payload, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// parseEntries parses an encoded payload and decodes every entry.
func parseEntries(payload []byte) ([]Entry, error) {
	b, err := parseBlock(payload)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, b.Len())
	for i := range out {
		out[i] = b.Entry(i)
	}
	return out, nil
}

func TestBlockCodecRoundTrip(t *testing.T) {
	entries := []Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Value: nil, Timestamp: 2, Tombstone: true},
		{Key: "c", Value: []byte("long value with spaces"), Timestamp: 1 << 40},
	}
	got, err := parseEntries(encodeBlock(entries).Payload())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range entries {
		e, g := entries[i], got[i]
		if e.Key != g.Key || string(e.Value) != string(g.Value) ||
			e.Timestamp != g.Timestamp || e.Tombstone != g.Tombstone {
			t.Fatalf("entry %d: %v != %v", i, g, e)
		}
	}
	// Empty block round-trips too.
	if got, err := parseEntries(encodeBlock(nil).Payload()); err != nil || len(got) != 0 {
		t.Fatalf("empty block: %v, %v", got, err)
	}
}

func TestBlockCodecProperty(t *testing.T) {
	err := quick.Check(func(keys []string, vals [][]byte, seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		var entries []Entry
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			entries = append(entries, Entry{
				Key: k, Value: v, Timestamp: rng.Uint64() >> 1, Tombstone: rng.Intn(2) == 0,
			})
		}
		enc := encodeBlock(entries)
		parsed, err := parseBlock(enc.Payload())
		if err != nil || parsed.Len() != len(entries) || parsed.Bytes() != enc.Bytes() {
			return false
		}
		for i := range entries {
			g := parsed.Entry(i)
			if g.Key != entries[i].Key || string(g.Value) != string(entries[i].Value) ||
				g.Timestamp != entries[i].Timestamp || g.Tombstone != entries[i].Tombstone {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseBlockCorrupt(t *testing.T) {
	good := encodeBlock([]Entry{{Key: "k", Value: []byte("v"), Timestamp: 3}}).Payload()
	cases := [][]byte{
		nil,
		{},
		good[:len(good)-1], // truncated
		append(good, 0xff), // trailing garbage
		{0x05},             // claims 5 entries, has none
		{0x01, 0x00, 0xff}, // bogus key length
	}
	for i, c := range cases {
		if _, err := parseBlock(c); err != ErrCorrupt {
			t.Errorf("case %d: corrupt block parsed (err %v)", i, err)
		}
	}
}

// TestBlockBytesIsEntrySizeSum pins the block cache's accounting: a
// block weighs its entries' summed Entry.Size, whether it was packed or
// parsed, so cache hit ratios do not depend on the encoding.
func TestBlockBytesIsEntrySizeSum(t *testing.T) {
	entries := []Entry{
		{Key: "a", Value: bytes.Repeat([]byte("x"), 1000), Timestamp: 9},
		{Key: "b", Timestamp: 8, Tombstone: true},
	}
	want := entries[0].Size() + entries[1].Size()
	blocks, _ := PackBlocks(entries, 1<<20)
	if len(blocks) != 1 || blocks[0].Bytes() != want {
		t.Fatalf("packed: %d blocks, Bytes %d; want 1 block of %d", len(blocks), blocks[0].Bytes(), want)
	}
	parsed, err := parseBlock(blocks[0].Payload())
	if err != nil || parsed.Bytes() != want {
		t.Fatalf("parsed: Bytes %d, %v; want %d", parsed.Bytes(), err, want)
	}
}

// TestReturnedValuesDoNotWriteBlocks: a Value that a Scan or a file read
// hands out aliases the cached block (or the memstore), with its
// capacity clipped, so a caller's append copies instead of writing over
// the block's next entry or another caller's bytes. Get's value is a copy.
func TestReturnedValuesDoNotWriteBlocks(t *testing.T) {
	s := newTestStore(t, Config{})
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Two Scans of one memstore value, each appended to.
	scanA := func() []byte {
		rows, err := s.Scan("a", "b", 1)
		if err != nil || len(rows) != 1 {
			t.Fatalf("scan a = %v, %v", rows, err)
		}
		return rows[0].Value
	}
	v1, v2 := scanA(), scanA()
	v1 = append(v1, 'X')
	v2 = append(v2, 'Y')
	if string(v1) != "value-aX" || string(v2) != "value-aY" {
		t.Fatalf("appends to two memstore Scans share bytes: %q, %q", v1, v2)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	f := s.files[0]
	b, err := f.src.LoadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(b.Payload())

	v, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	v = append(v, "XXXXXXXX"...)
	rows, err := s.Scan("", "", -1)
	if err != nil || len(rows) != 3 {
		t.Fatalf("scan = %v, %v", rows, err)
	}
	for _, r := range rows {
		r.Value = append(r.Value, "YYYYYYYY"...)
	}
	e, _, found, err := f.get("a", s.cache, nil, nil)
	if err != nil || !found {
		t.Fatalf("file get: %v, %v", found, err)
	}
	e.Value = append(e.Value, "ZZZZZZZZ"...)
	it := f.iteratorFrom("", s.cache, nil, nil)
	for it.Next() {
		e := it.Entry()
		e.Value = append(e.Value, "WWWWWWWW"...)
	}

	if !bytes.Equal(b.Payload(), before) {
		t.Fatalf("appends wrote into the cached block:\n got %q\nwant %q", b.Payload(), before)
	}
	if got, err := s.Get("b"); err != nil || string(got) != "value-b" {
		t.Fatalf("next entry after appends = %q, %v", got, err)
	}
	if string(v) != "value-aXXXXXXXX" {
		t.Fatalf("appended value = %q", v)
	}
}
