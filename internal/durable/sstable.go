package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"

	"met/internal/kv"
)

const (
	sstMagic       = "METS"
	sstVersion     = 1
	sstHeaderSize  = 5
	sstFooterMagic = "METSFOOT"
	// footer: 6 × u32 section coordinates + 16 reserved + 8 magic.
	sstFooterSize = 6*4 + 16 + 8
)

// blockSpan locates one data block inside the file.
type blockSpan struct {
	firstKey string
	off      uint64
	length   uint64
}

// writeSSTable persists sorted entries as one SSTable at path, atomically
// (write to temp, fsync, rename, fsync dir). Blocks are packed with the
// same rule as the in-memory backend. It returns the file's metadata with
// Bytes set to the real on-disk size. maxTSFloor raises the recorded
// max-timestamp property (see Backend.CreateWithMaxTS).
func writeSSTable(path string, entries []kv.Entry, blockBytes int, opts Options, maxTSFloor uint64) (kv.FileMeta, error) {
	blocks, meta := kv.PackBlocks(entries, blockBytes)
	if meta.MaxTS < maxTSFloor {
		meta.MaxTS = maxTSFloor
	}

	var buf []byte
	buf = append(buf, sstMagic...)
	buf = append(buf, sstVersion)

	spans := make([]blockSpan, 0, len(blocks))
	for _, b := range blocks {
		payload := kv.EncodeBlock(b.Entries())
		spans = append(spans, blockSpan{
			firstKey: b.Entries()[0].Key,
			off:      uint64(len(buf)),
			length:   uint64(len(payload) + 4),
		})
		buf = append(buf, payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	}

	indexOff := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, sp := range spans {
		buf = binary.AppendUvarint(buf, uint64(len(sp.firstKey)))
		buf = append(buf, sp.firstKey...)
		buf = binary.AppendUvarint(buf, sp.off)
		buf = binary.AppendUvarint(buf, sp.length)
	}
	indexLen := len(buf) - indexOff

	bloom := newBloomFilter(distinctKeys(entries), opts.BitsPerKey)
	for _, e := range entries {
		bloom.add(e.Key)
	}
	bloomOff := len(buf)
	buf = append(buf, bloom.marshal()...)
	bloomLen := len(buf) - bloomOff

	propsOff := len(buf)
	buf = binary.AppendUvarint(buf, uint64(meta.Entries))
	buf = binary.AppendUvarint(buf, meta.MaxTS)
	buf = binary.AppendUvarint(buf, uint64(len(meta.MinKey)))
	buf = append(buf, meta.MinKey...)
	buf = binary.AppendUvarint(buf, uint64(len(meta.MaxKey)))
	buf = append(buf, meta.MaxKey...)
	propsLen := len(buf) - propsOff

	footer := make([]byte, 0, sstFooterSize)
	for _, v := range []int{indexOff, indexLen, bloomOff, bloomLen, propsOff, propsLen} {
		footer = binary.LittleEndian.AppendUint32(footer, uint32(v))
	}
	footer = append(footer, make([]byte, 16)...) // reserved
	footer = append(footer, sstFooterMagic...)
	buf = append(buf, footer...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return kv.FileMeta{}, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return kv.FileMeta{}, err
	}
	if err := syncFile(f, opts.NoSync); err != nil {
		f.Close()
		os.Remove(tmp)
		return kv.FileMeta{}, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return kv.FileMeta{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return kv.FileMeta{}, err
	}
	meta.Bytes = len(buf)
	return meta, nil
}

// distinctKeys counts key changes in a sorted entry run (bloom sizing).
func distinctKeys(entries []kv.Entry) int {
	n := 0
	for i, e := range entries {
		if i == 0 || e.Key != entries[i-1].Key {
			n++
		}
	}
	return n
}

// sstable reads one SSTable through an open file handle, implementing
// kv.BlockSource: the block index and bloom filter live in memory, data
// blocks are pread + checksum-verified + decoded on demand (the kv
// engine caches them). The handle stays open for the reader's lifetime,
// so a compaction may unlink the file while lock-free scans are still
// reading it (unlink-while-open).
type sstable struct {
	path  string
	f     *os.File
	meta  kv.FileMeta
	index []blockSpan
	bloom *bloomFilter

	// blockReads counts physical data-block reads; the bloom filter
	// tests assert it stays at zero for negative lookups.
	blockReads atomic.Int64
	closed     atomic.Bool
}

// openSSTable opens and validates path: header, footer, index, bloom
// filter and properties are read eagerly; data blocks stay on disk.
func openSSTable(path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < sstHeaderSize+sstFooterSize {
		f.Close()
		return nil, corruptf("sstable %s too short", path)
	}
	hdr := make([]byte, sstHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if string(hdr[:4]) != sstMagic {
		f.Close()
		return nil, corruptf("sstable %s magic", path)
	}
	if hdr[4] != sstVersion {
		f.Close()
		return nil, fmt.Errorf("durable: unsupported sstable version %d in %s", hdr[4], path)
	}
	footer := make([]byte, sstFooterSize)
	if _, err := f.ReadAt(footer, size-sstFooterSize); err != nil {
		f.Close()
		return nil, err
	}
	if string(footer[len(footer)-8:]) != sstFooterMagic {
		f.Close()
		return nil, corruptf("sstable %s footer magic", path)
	}
	sec := make([]uint32, 6)
	for i := range sec {
		sec[i] = binary.LittleEndian.Uint32(footer[i*4 : i*4+4])
	}
	indexOff, indexLen := int64(sec[0]), int64(sec[1])
	bloomOff, bloomLen := int64(sec[2]), int64(sec[3])
	propsOff, propsLen := int64(sec[4]), int64(sec[5])
	limit := size - sstFooterSize
	for _, span := range [][2]int64{{indexOff, indexLen}, {bloomOff, bloomLen}, {propsOff, propsLen}} {
		if span[0] < 0 || span[1] < 0 || span[0]+span[1] > limit {
			f.Close()
			return nil, corruptf("sstable %s section out of bounds", path)
		}
	}

	t := &sstable{path: path, f: f}
	t.meta.Bytes = int(size)

	readSection := func(off, n int64) ([]byte, error) {
		buf := make([]byte, n)
		_, err := f.ReadAt(buf, off)
		return buf, err
	}
	idxBuf, err := readSection(indexOff, indexLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	count, n := binary.Uvarint(idxBuf)
	if n <= 0 {
		f.Close()
		return nil, corruptf("sstable %s index count", path)
	}
	idxBuf = idxBuf[n:]
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(idxBuf)
		if n <= 0 || uint64(len(idxBuf)-n) < klen {
			f.Close()
			return nil, corruptf("sstable %s index key", path)
		}
		key := string(idxBuf[n : n+int(klen)])
		idxBuf = idxBuf[n+int(klen):]
		off, n := binary.Uvarint(idxBuf)
		if n <= 0 {
			f.Close()
			return nil, corruptf("sstable %s index offset", path)
		}
		idxBuf = idxBuf[n:]
		length, n := binary.Uvarint(idxBuf)
		if n <= 0 {
			f.Close()
			return nil, corruptf("sstable %s index length", path)
		}
		idxBuf = idxBuf[n:]
		// Validate the span now so LoadBlock can trust it: a corrupt
		// length would otherwise size an allocation (and a pread)
		// straight from disk bytes. Every block lives between the
		// header and the footer and carries at least a CRC trailer.
		if length < 4 || off < sstHeaderSize || off > uint64(limit) ||
			length > uint64(limit)-off {
			f.Close()
			return nil, corruptf("sstable %s index span out of bounds", path)
		}
		t.index = append(t.index, blockSpan{firstKey: key, off: off, length: length})
	}

	bloomBuf, err := readSection(bloomOff, bloomLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	if t.bloom, err = unmarshalBloom(bloomBuf); err != nil {
		f.Close()
		return nil, err
	}

	propsBuf, err := readSection(propsOff, propsLen)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := t.parseProps(propsBuf); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func (t *sstable) parseProps(buf []byte) error {
	entries, n := binary.Uvarint(buf)
	if n <= 0 {
		return corruptf("sstable %s props entries", t.path)
	}
	buf = buf[n:]
	maxTS, n := binary.Uvarint(buf)
	if n <= 0 {
		return corruptf("sstable %s props maxTS", t.path)
	}
	buf = buf[n:]
	readStr := func() (string, error) {
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return "", corruptf("sstable %s props key", t.path)
		}
		s := string(buf[n : n+int(l)])
		buf = buf[n+int(l):]
		return s, nil
	}
	minKey, err := readStr()
	if err != nil {
		return err
	}
	maxKey, err := readStr()
	if err != nil {
		return err
	}
	t.meta.Entries = int(entries)
	t.meta.MaxTS = maxTS
	t.meta.MinKey = minKey
	t.meta.MaxKey = maxKey
	return nil
}

// Meta returns the file metadata (Bytes = real on-disk size).
func (t *sstable) Meta() kv.FileMeta { return t.meta }

// BlockReads returns the number of physical data-block reads served.
func (t *sstable) BlockReads() int64 { return t.blockReads.Load() }

// NumBlocks implements kv.BlockSource.
func (t *sstable) NumBlocks() int { return len(t.index) }

// FirstKey implements kv.BlockSource.
func (t *sstable) FirstKey(i int) string { return t.index[i].firstKey }

// MayContain implements kv.BlockSource via the bloom filter.
func (t *sstable) MayContain(key string) bool { return t.bloom.mayContain(key) }

// LoadBlock implements kv.BlockSource: pread the block, verify its
// checksum, decode. Reads racing a Close (store retired under a
// lock-free scan) surface kv.ErrClosed, which the serving layer already
// absorbs.
func (t *sstable) LoadBlock(i int) (*kv.Block, error) {
	sp := t.index[i]
	buf := make([]byte, sp.length)
	if _, err := t.f.ReadAt(buf, int64(sp.off)); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil, kv.ErrClosed
		}
		return nil, err
	}
	if len(buf) < 4 {
		return nil, corruptf("sstable %s block %d too short", t.path, i)
	}
	payload, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, corruptf("sstable %s block %d checksum", t.path, i)
	}
	entries, err := kv.DecodeBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("sstable %s block %d: %w", t.path, i, err)
	}
	t.blockReads.Add(1)
	return kv.NewBlock(entries), nil
}

// Close releases the file handle.
func (t *sstable) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.f.Close()
}

var _ kv.BlockSource = (*sstable)(nil)
