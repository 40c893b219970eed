package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
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
// same rule as the in-memory backend, and each block's payload is written
// as packed through one small buffer, so a flush holds one encoded copy
// of its data. It returns the file's metadata with Bytes set to the real
// on-disk size. maxTSFloor raises the recorded max-timestamp property
// (see Backend.CreateWithMaxTS).
func writeSSTable(path string, entries []kv.Entry, blockBytes int, opts Options, maxTSFloor uint64) (kv.FileMeta, error) {
	blocks, meta := kv.PackBlocks(entries, blockBytes)
	if meta.MaxTS < maxTSFloor {
		meta.MaxTS = maxTSFloor
	}

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return kv.FileMeta{}, err
	}
	// A bufio.Writer keeps its first error and Flush returns it, so the
	// writes below are checked once, at the Flush.
	w := bufio.NewWriterSize(f, 256<<10)
	w.WriteString(sstMagic)
	w.WriteByte(sstVersion)
	off := sstHeaderSize
	spans := make([]blockSpan, 0, len(blocks))
	var sum [4]byte
	for _, b := range blocks {
		payload := b.Payload()
		spans = append(spans, blockSpan{
			firstKey: b.Entry(0).Key,
			off:      uint64(off),
			length:   uint64(len(payload) + 4),
		})
		binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
		w.Write(payload)
		w.Write(sum[:])
		off += len(payload) + 4
	}

	// The metadata sections follow the blocks; their offsets in buf are
	// relative to off.
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, sp := range spans {
		buf = binary.AppendUvarint(buf, uint64(len(sp.firstKey)))
		buf = append(buf, sp.firstKey...)
		buf = binary.AppendUvarint(buf, sp.off)
		buf = binary.AppendUvarint(buf, sp.length)
	}
	indexLen := len(buf)

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

	for _, v := range []int{off, indexLen, off + bloomOff, bloomLen, off + propsOff, propsLen} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = append(buf, make([]byte, 16)...) // reserved
	buf = append(buf, sstFooterMagic...)
	w.Write(buf)

	err = w.Flush()
	if err == nil {
		err = syncFile(f, opts.NoSync)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return kv.FileMeta{}, err
	}
	meta.Bytes = off + len(buf)
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
// blocks are pread + checksum-verified + indexed on demand (the kv
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
func openSSTable(path string) (_ *sstable, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < sstHeaderSize+sstFooterSize {
		return nil, corruptf("sstable %s too short", path)
	}
	hdr := make([]byte, sstHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != sstMagic {
		return nil, corruptf("sstable %s magic", path)
	}
	if hdr[4] != sstVersion {
		return nil, fmt.Errorf("durable: unsupported sstable version %d in %s", hdr[4], path)
	}
	footer := make([]byte, sstFooterSize)
	if _, err := f.ReadAt(footer, size-sstFooterSize); err != nil {
		return nil, err
	}
	if string(footer[len(footer)-8:]) != sstFooterMagic {
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
		return nil, err
	}
	idx := section{buf: idxBuf}
	for i, count := uint64(0), idx.uvarint(); !idx.bad && i < count; i++ {
		key, off, length := idx.str(), idx.uvarint(), idx.uvarint()
		// Validate the span now so LoadBlock can trust it: a corrupt
		// length would otherwise size an allocation (and a pread)
		// straight from disk bytes. Every block lives between the
		// header and the footer and carries at least a CRC trailer.
		if !idx.bad && (length < 4 || off < sstHeaderSize || off > uint64(limit) ||
			length > uint64(limit)-off) {
			return nil, corruptf("sstable %s index span out of bounds", path)
		}
		t.index = append(t.index, blockSpan{firstKey: key, off: off, length: length})
	}
	if idx.bad {
		return nil, corruptf("sstable %s index", path)
	}

	bloomBuf, err := readSection(bloomOff, bloomLen)
	if err != nil {
		return nil, err
	}
	if t.bloom, err = unmarshalBloom(bloomBuf); err != nil {
		return nil, err
	}

	propsBuf, err := readSection(propsOff, propsLen)
	if err != nil {
		return nil, err
	}
	if err := t.parseProps(propsBuf); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *sstable) parseProps(buf []byte) error {
	props := section{buf: buf}
	entries, maxTS := props.uvarint(), props.uvarint()
	minKey, maxKey := props.str(), props.str()
	if props.bad {
		return corruptf("sstable %s props", t.path)
	}
	t.meta.Entries = int(entries)
	t.meta.MaxTS = maxTS
	t.meta.MinKey = minKey
	t.meta.MaxKey = maxKey
	return nil
}

// section decodes the uvarints and length-prefixed strings of a
// metadata section in order. A malformed field sets bad, and every
// later read returns zero.
type section struct {
	buf []byte
	bad bool
}

func (s *section) uvarint() uint64 {
	v, n := binary.Uvarint(s.buf)
	if s.bad || n <= 0 {
		s.bad = true
		return 0
	}
	s.buf = s.buf[n:]
	return v
}

func (s *section) str() string {
	l := s.uvarint()
	if s.bad || uint64(len(s.buf)) < l {
		s.bad = true
		return ""
	}
	v := string(s.buf[:l])
	s.buf = s.buf[l:]
	return v
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

// blockPool holds the blocks whose last pin was dropped, each with its
// read buffer and entry offsets, for the next LoadBlock to read into:
// a block-cache miss then costs no allocation, and the block its
// insertion evicted feeds the next one.
var blockPool = sync.Pool{New: func() any { return new(kv.Block) }}

func recycleBlock(b *kv.Block) { blockPool.Put(b) }

// readBuffer returns n bytes to read into: the buffer of b's last
// payload when that is large enough, else a new one. Grow rounds the
// new one's capacity up to what the allocator reserves anyway (a size
// class, or whole pages), so it can take a slightly larger block when
// it is recycled.
func readBuffer(b *kv.Block, n int) []byte {
	if buf := b.Payload(); cap(buf) >= n {
		return buf[:n]
	}
	return slices.Grow([]byte(nil), n)[:n]
}

// LoadBlock implements kv.BlockSource: pread the block into a recycled
// buffer, verify its checksum, index its entries (kv.Block.Parse); the
// block keeps the read buffer, so no entry is copied, and goes back to
// blockPool when its last pin is released. A failed load returns its
// block to the pool itself. Reads racing a Close (store retired under
// a lock-free scan) surface kv.ErrClosed, which the serving layer
// already absorbs.
func (t *sstable) LoadBlock(i int) (_ *kv.Block, err error) {
	sp := t.index[i]
	b := blockPool.Get().(*kv.Block)
	defer func() {
		if err != nil {
			blockPool.Put(b) // unpinned and unseen: no reader holds it
		}
	}()
	buf := readBuffer(b, int(sp.length))
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
	if err := b.Parse(payload, recycleBlock); err != nil {
		return nil, fmt.Errorf("sstable %s block %d: %w", t.path, i, err)
	}
	t.blockReads.Add(1)
	return b, nil
}

// Close releases the file handle.
func (t *sstable) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.f.Close()
}

var _ kv.BlockSource = (*sstable)(nil)
