package kv

import (
	"testing"
	"testing/quick"

	"met/internal/sim"
)

func TestBlockCodecRoundTrip(t *testing.T) {
	entries := []Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Value: nil, Timestamp: 2, Tombstone: true},
		{Key: "c", Value: []byte("long value with spaces"), Timestamp: 1 << 40},
	}
	got, err := DecodeBlock(EncodeBlock(entries))
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
	if got, err := DecodeBlock(EncodeBlock(nil)); err != nil || len(got) != 0 {
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
		got, err := DecodeBlock(EncodeBlock(entries))
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i].Key != entries[i].Key || string(got[i].Value) != string(entries[i].Value) ||
				got[i].Timestamp != entries[i].Timestamp || got[i].Tombstone != entries[i].Tombstone {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockCorrupt(t *testing.T) {
	good := EncodeBlock([]Entry{{Key: "k", Value: []byte("v"), Timestamp: 3}})
	cases := [][]byte{
		nil,
		{},
		good[:len(good)-1], // truncated
		append(good, 0xff), // trailing garbage
		{0x05},             // claims 5 entries, has none
		{0x01, 0x00, 0xff}, // bogus key length
	}
	for i, c := range cases {
		if _, err := DecodeBlock(c); err == nil {
			t.Errorf("case %d: corrupt block decoded", i)
		}
	}
}
