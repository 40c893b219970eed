package kv

import (
	"encoding/binary"
	"fmt"
)

// Wire format for a store-file block's payload — the packing durable
// SSTables store their data blocks in (met/internal/durable frames each
// payload with its own CRC and index):
//
//	payload:= entryCount(varint) entry*
//	entry  := flags(1) keyLen(varint) key valLen(varint) val ts(varint)
//
// flags bit 0 marks a tombstone.

const flagTombstone byte = 1 << 0

// ErrCorrupt is returned when decoding fails integrity checks.
var ErrCorrupt = fmt.Errorf("kv: corrupt file data")

// EncodeBlock serializes one block's entries to the wire payload.
func EncodeBlock(entries []Entry) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		var flags byte
		if e.Tombstone {
			flags |= flagTombstone
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
		buf = append(buf, e.Value...)
		buf = binary.AppendUvarint(buf, e.Timestamp)
	}
	return buf
}

// DecodeBlock parses a block payload back into entries.
func DecodeBlock(buf []byte) ([]Entry, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	buf = buf[n:]
	// Each entry takes at least 4 bytes (flags + three 1-byte
	// varints), so a count implying more entries than the payload can
	// hold is corruption — and must not size the allocation below.
	if count > uint64(len(buf))/4 {
		return nil, ErrCorrupt
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(buf) < 1 {
			return nil, ErrCorrupt
		}
		flags := buf[0]
		buf = buf[1:]
		key, rest, err := readBytes(buf)
		if err != nil {
			return nil, err
		}
		val, rest2, err := readBytes(rest)
		if err != nil {
			return nil, err
		}
		ts, n := binary.Uvarint(rest2)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		buf = rest2[n:]
		e := Entry{Key: string(key), Timestamp: ts, Tombstone: flags&flagTombstone != 0}
		if len(val) > 0 {
			e.Value = append([]byte(nil), val...)
		}
		entries = append(entries, e)
	}
	if len(buf) != 0 {
		return nil, ErrCorrupt
	}
	return entries, nil
}

func readBytes(buf []byte) (data, rest []byte, err error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return nil, nil, ErrCorrupt
	}
	return buf[n : n+int(l)], buf[n+int(l):], nil
}
