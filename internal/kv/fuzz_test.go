package kv

// Fuzz harness for the store-file block parser: arbitrary payload bytes
// must either parse or be refused with ErrCorrupt — never panic or size
// an allocation from untrusted input — and anything that parses must
// re-encode entry for entry.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func FuzzParseBlock(f *testing.F) {
	f.Add(encodeBlock(nil).Payload())
	f.Add(encodeBlock([]Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Timestamp: 2, Tombstone: true},
	}).Payload())
	// A giant entry count must be rejected before it sizes the slice.
	huge := binary.AppendUvarint(nil, 1<<62)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := parseBlock(data)
		if err != nil {
			if err != ErrCorrupt {
				t.Fatalf("refused with %v, want ErrCorrupt", err)
			}
			return
		}
		entries := make([]Entry, b.Len())
		for i := range entries {
			entries[i] = b.Entry(i)
			if v := entries[i].Value; cap(v) != len(v) {
				t.Fatalf("entry %d: value cap %d > len %d", i, cap(v), len(v))
			}
		}
		again, err := parseBlock(encodeBlock(entries).Payload())
		if err != nil {
			t.Fatalf("re-parse of re-encoded block: %v", err)
		}
		if again.Len() != len(entries) || again.Bytes() != b.Bytes() {
			t.Fatalf("round trip: %d entries (%d B) became %d (%d B)", len(entries), b.Bytes(), again.Len(), again.Bytes())
		}
		for i, a := range entries {
			g := again.Entry(i)
			if a.Key != g.Key || a.Timestamp != g.Timestamp || a.Tombstone != g.Tombstone || !bytes.Equal(a.Value, g.Value) {
				t.Fatalf("round trip entry %d: %+v became %+v", i, a, g)
			}
		}
	})
}
