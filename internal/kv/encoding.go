package kv

import (
	"encoding/binary"
	"fmt"
)

// Wire format for a store-file block's payload — the form a Block keeps
// in memory and durable SSTables store their data blocks in
// (met/internal/durable frames each payload with its own CRC and index):
//
//	payload:= entryCount(varint) entry*
//	entry  := flags(1) keyLen(varint) key valLen(varint) val ts(varint)
//
// flags bit 0 marks a tombstone.

const flagTombstone byte = 1 << 0

// ErrCorrupt is returned when decoding fails integrity checks.
var ErrCorrupt = fmt.Errorf("kv: corrupt file data")

// encodeBlock packs entries, in the order given, into one block.
func encodeBlock(entries []Entry) *Block {
	b := &Block{offs: make([]uint32, len(entries))}
	for _, e := range entries {
		b.bytes += e.Size()
	}
	// Entry.Size's 16 B of overhead covers an entry's flags and three
	// varints for all but very large keys, so the payload fits without
	// a regrowth.
	b.data = make([]byte, 0, b.bytes+binary.MaxVarintLen64)
	b.data = binary.AppendUvarint(b.data, uint64(len(entries)))
	for i, e := range entries {
		b.offs[i] = uint32(len(b.data))
		var flags byte
		if e.Tombstone {
			flags |= flagTombstone
		}
		b.data = append(b.data, flags)
		b.data = binary.AppendUvarint(b.data, uint64(len(e.Key)))
		b.data = append(b.data, e.Key...)
		b.data = binary.AppendUvarint(b.data, uint64(len(e.Value)))
		b.data = append(b.data, e.Value...)
		b.data = binary.AppendUvarint(b.data, e.Timestamp)
	}
	return b
}

// Parse indexes a block payload in one pass and keeps it as b's data,
// so the caller must not write payload afterwards. b must be new or
// recycled (no reader holds it); its entry-offset slice is reused. On
// success b carries one pin, the caller's, and recycle (nil for none)
// is called when its last pin drops. Parse refuses with ErrCorrupt a
// count larger than the bytes allow, a truncated varint, a field
// running past the payload, and trailing bytes; either way b keeps
// payload as its data (Payload), so a reader can reuse the buffer.
func (b *Block) Parse(payload []byte, recycle func(*Block)) error {
	b.data, b.bytes = payload, 0
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return ErrCorrupt
	}
	// Each entry takes at least 4 bytes (flags + three 1-byte
	// varints), so a count implying more entries than the payload can
	// hold is corruption — and must not size the allocation below.
	if count > uint64(len(payload)-n)/4 {
		return ErrCorrupt
	}
	if uint64(cap(b.offs)) >= count {
		b.offs = b.offs[:count]
	} else {
		b.offs = make([]uint32, count)
	}
	for i := range b.offs {
		b.offs[i] = uint32(n)
		r, size := readEntry(payload[n:])
		if size == 0 {
			return ErrCorrupt
		}
		b.bytes += len(r.key) + len(r.val) + 16 // Entry.Size
		n += size
	}
	if n != len(payload) {
		return ErrCorrupt
	}
	b.pins.Store(1)
	b.recycle = recycle
	return nil
}

// rawEntry is one encoded entry's fields, aliasing the payload.
type rawEntry struct {
	flags    byte
	key, val []byte
	ts       uint64
}

// entry builds the Entry under key. Its Value aliases the payload, with
// its capacity clipped so that an append by a reader copies instead of
// overwriting the next entry.
func (r rawEntry) entry(key string) Entry {
	e := Entry{Key: key, Timestamp: r.ts, Tombstone: r.flags&flagTombstone != 0}
	if len(r.val) > 0 {
		e.Value = r.val[:len(r.val):len(r.val)]
	}
	return e
}

// readEntry decodes the entry at the start of buf and returns it with
// its encoded size, or a size of 0 when it is malformed.
func readEntry(buf []byte) (r rawEntry, n int) {
	if len(buf) == 0 {
		return r, 0
	}
	r.flags, n = buf[0], 1
	for _, field := range [2]*[]byte{&r.key, &r.val} {
		l, m := binary.Uvarint(buf[n:])
		if m <= 0 || uint64(len(buf)-n-m) < l {
			return r, 0
		}
		*field, n = buf[n+m:n+m+int(l)], n+m+int(l)
	}
	ts, m := binary.Uvarint(buf[n:])
	if m <= 0 {
		return r, 0
	}
	r.ts = ts
	return r, n + m
}
