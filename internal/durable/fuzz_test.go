package durable

// Fuzz harnesses for the two binary parsers that read bytes straight
// off disk: the WAL segment/frame decoder and the SSTable
// footer/index/block parser. Both must reject arbitrary corruption
// with an error — never a panic or an attacker-sized allocation.
// CI runs each target briefly (-fuzztime) on every PR; the seeds
// below cover every format version plus torn and bit-flipped files.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"met/internal/kv"
)

// walSeedSegment assembles an on-disk segment image: magic, version
// byte, then the given frames back to back.
func walSeedSegment(version byte, frames ...[]byte) []byte {
	seg := append([]byte(walMagic), version)
	for _, f := range frames {
		seg = append(seg, f...)
	}
	return seg
}

// walSeedFrameV1 hand-builds a legacy v1 frame: the v2 payload layout
// minus the region field.
func walSeedFrameV1(key, value string, ts uint64) []byte {
	p := []byte{0}
	p = binary.AppendUvarint(p, ts)
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	p = binary.AppendUvarint(p, uint64(len(value)))
	p = append(p, value...)
	frame := make([]byte, frameHeaderSize+len(p))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, castagnoli))
	copy(frame[frameHeaderSize:], p)
	return frame
}

func FuzzWALReadSegment(f *testing.F) {
	rec := encodeRecord("users", kv.Entry{Key: "k", Value: []byte("v"), Timestamp: 7}, false)
	tomb := encodeRecord("", kv.Entry{Key: "gone", Tombstone: true, Timestamp: 9}, true)
	f.Add(walSeedSegment(walVersion, rec, tomb))
	f.Add(walSeedSegment(walVersionV1, walSeedFrameV1("a", "b", 3)))
	f.Add(walSeedSegment(walVersion, rec[:len(rec)-3])) // torn tail
	corrupt := walSeedSegment(walVersion, rec, tomb)
	corrupt[len(corrupt)-1] ^= 0xff // payload bit flip, CRC must catch
	f.Add(corrupt)
	f.Add([]byte(walMagic))
	f.Add(walSeedSegment(99)) // unknown version

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Corruption must surface as an error (or a silent stop at a
		// torn tail), never a panic.
		_ = readSegment(path, func(walRecord) {})
	})
}

func FuzzWALRecordRoundTrip(f *testing.F) {
	f.Add("users", "k", []byte("v"), uint64(7), false, false)
	f.Add("", "", []byte(nil), uint64(0), true, true)
	f.Add("r", "key.with.dots", bytes.Repeat([]byte{0}, 100), uint64(1<<40), false, true)

	f.Fuzz(func(t *testing.T, region, key string, value []byte, ts uint64, tombstone, drop bool) {
		e := kv.Entry{Key: key, Timestamp: ts, Tombstone: tombstone}
		if len(value) > 0 {
			e.Value = value
		}
		frame := encodeRecord(region, e, drop)
		payload := frame[frameHeaderSize:]
		if got := binary.LittleEndian.Uint32(frame[0:4]); int(got) != len(payload) {
			t.Fatalf("frame length header %d, payload %d bytes", got, len(payload))
		}
		if got := binary.LittleEndian.Uint32(frame[4:8]); got != crc32.Checksum(payload, castagnoli) {
			t.Fatalf("frame CRC header does not cover payload")
		}
		rec, err := decodePayload(payload, walVersion)
		if err != nil {
			t.Fatalf("decodePayload of freshly encoded record: %v", err)
		}
		if rec.region != region || rec.drop != drop {
			t.Fatalf("round trip: got region %q drop %v, want %q %v", rec.region, rec.drop, region, drop)
		}
		if rec.e.Key != key || rec.e.Timestamp != ts || rec.e.Tombstone != tombstone || !bytes.Equal(rec.e.Value, value) {
			t.Fatalf("round trip entry mismatch: got %+v want %+v", rec.e, e)
		}
	})
}

func FuzzSSTableOpen(f *testing.F) {
	entries := []kv.Entry{
		{Key: "a", Value: []byte("1"), Timestamp: 1},
		{Key: "b", Timestamp: 2, Tombstone: true},
		{Key: "c", Value: bytes.Repeat([]byte("x"), 64), Timestamp: 3},
		{Key: "d", Value: []byte("4"), Timestamp: 4},
	}
	seed := filepath.Join(f.TempDir(), "seed.sst")
	if _, err := writeSSTable(seed, entries, 32, Options{NoSync: true}, 0); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2]) // truncated mid-file
	flip := append([]byte(nil), data...)
	flip[len(flip)/3] ^= 0x40 // index/props corruption
	f.Add(flip)
	f.Add([]byte("METS\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.sst")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := openSSTable(path)
		if err != nil {
			return // rejected; that is the correct outcome for garbage
		}
		defer tbl.Close()
		// Whatever survived the footer checks must be fully readable
		// without panicking; per-block CRCs may still reject content.
		_ = tbl.Meta()
		_ = tbl.MayContain("a")
		for i := 0; i < tbl.NumBlocks(); i++ {
			_ = tbl.FirstKey(i)
			_, _ = tbl.LoadBlock(i)
		}
	})
}
