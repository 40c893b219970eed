package kv

import (
	"fmt"
	"sort"
	"sync/atomic"

	"met/internal/obs"
)

// Block is one unit of a store file: a run of consecutive entries that is
// loaded (and cached) as a whole. The configured block size trades random
// reads (small blocks load less extraneous data) against sequential scans
// (large blocks amortize per-block overhead), mirroring HBase's HFile
// block size knob.
//
// A block stays in its encoded form (the payload format in encoding.go,
// the bytes a durable SSTable stores) beside each entry's offset, and an
// entry is decoded when it is read. Entries read from a block alias its
// payload, which the block cache shares between readers, so a block and
// every Value read from it are immutable while anyone holds it.
//
// Pins say who holds a block. A source hands each loaded block out with
// one pin, its caller's; the block cache holds one more for as long as
// the block is resident, taken under the cache's lock together with the
// lookup. Release drops a pin, and dropping the last one hands the block
// to its recycle hook, which may overwrite the payload at once: only
// durable blocks set one (Block.Parse), so they return their read buffer
// to the SSTable reader's free list, while a block without a hook (the
// memory backend's) is left to the GC. Every reader releases what it
// took once it is done with the entries: a Get copies the value out
// first, and a scan (Store.ScanFunc) releases every block its iterators
// loaded when the visit ends, since a merged entry's block may already
// be left behind when the visitor sees it. Compaction alone keeps its
// pins: its merged entries alias their blocks until the output file is
// written, and those blocks are freed by the GC, never recycled.
type Block struct {
	data    []byte   // the encoded payload
	offs    []uint32 // offs[i] is where entry i starts in data
	bytes   int      // the entries' summed Entry.Size (cache accounting)
	pins    atomic.Int32
	recycle func(*Block) // called when the last pin drops; nil leaves the block to the GC
}

// pin takes one more pin on b.
func (b *Block) pin() { b.pins.Add(1) }

// Release drops one pin on b (nil-safe). Dropping the last pin recycles
// a block that has a recycle hook, so the caller must not read b, or
// any Value read from it, afterwards.
func (b *Block) Release() {
	if b != nil && b.pins.Add(-1) == 0 && b.recycle != nil {
		b.recycle(b)
	}
}

// Len returns the number of entries in the block.
func (b *Block) Len() int { return len(b.offs) }

// Bytes returns the approximate byte size of the block.
func (b *Block) Bytes() int { return b.bytes }

// Payload returns the block's encoded payload (shared, not copied).
func (b *Block) Payload() []byte { return b.data }

// Entry decodes entry i. Its Value aliases the block (see rawEntry.entry).
func (b *Block) Entry(i int) Entry {
	r := b.raw(i)
	return r.entry(string(r.key))
}

// raw returns entry i's fields; Parse or encodeBlock vouched for them.
func (b *Block) raw(i int) rawEntry {
	r, _ := readEntry(b.data[b.offs[i]:])
	return r
}

// search returns the index of the first entry whose key is >= key.
// Entries are (key asc, ts desc), so that is the newest version of key
// when the block holds it.
func (b *Block) search(key string) int {
	return sort.Search(len(b.offs), func(i int) bool { return string(b.raw(i).key) >= key })
}

// BlockSource is the storage behind a StoreFile: an ordered sequence of
// immutable blocks plus an optional membership filter. The engine layers
// the block cache, the sparse key index and the iterators on top, so a
// source only has to produce blocks — from memory (memorySource) or from
// an on-disk SSTable (met/internal/durable).
type BlockSource interface {
	// NumBlocks returns the number of data blocks.
	NumBlocks() int
	// FirstKey returns the first key of block i (the sparse index).
	FirstKey(i int) string
	// LoadBlock materializes block i. The engine caches the result, so a
	// source may read and parse it from disk on every call. A block it
	// reads afresh carries one pin, the caller's; a source that recycles
	// buffers sets the block's recycle hook (Block.Parse) and gets the
	// block back when its last pin is released. A source that keeps its
	// blocks (the memory backend) sets none, and pins on them are moot.
	LoadBlock(i int) (*Block, error)
	// MayContain is a fast membership filter: false means the key is
	// definitely absent and no block needs to be read (bloom filter);
	// true means "maybe". Sources without a filter return true.
	MayContain(key string) bool
}

// FileMeta carries the summary statistics a StoreFile serves without
// touching its blocks.
type FileMeta struct {
	Entries int
	Bytes   int
	MinKey  string
	MaxKey  string
	MaxTS   uint64
}

// StoreFile is an immutable sorted file produced by a memstore flush or a
// compaction, corresponding to an HBase HFile. It wraps a BlockSource
// with the sparse first-key index, the block cache and the negative-
// lookup filter, so in-memory and on-disk files serve reads through the
// same code path.
type StoreFile struct {
	id        uint64
	cacheID   uint64 // the block cache's key for this open file (see cacheIDs)
	src       BlockSource
	firstKeys []string // firstKeys[i] is the first key of block i
	meta      FileMeta
}

// cacheIDs mints the block cache's key for each opened store file. It
// is never persisted, so it is unique among every file this process
// opens, whoever minted the file's own id: a region adopted from a
// replica keeps ids another process minted, which can equal a file id
// of another region sharing the server's cache.
var cacheIDs atomic.Uint64

// NewStoreFile wraps a block source and its metadata as a store file.
// The sparse index is copied out of the source once, up front.
func NewStoreFile(id uint64, meta FileMeta, src BlockSource) *StoreFile {
	f := &StoreFile{id: id, cacheID: cacheIDs.Add(1), src: src, meta: meta}
	f.firstKeys = make([]string, src.NumBlocks())
	for i := range f.firstKeys {
		f.firstKeys[i] = src.FirstKey(i)
	}
	return f
}

// memorySource is the heap-resident BlockSource used by the memory
// backend: blocks live in RAM and every key "may" be present.
type memorySource struct {
	blocks []*Block
}

func (m *memorySource) NumBlocks() int                  { return len(m.blocks) }
func (m *memorySource) FirstKey(i int) string           { return m.blocks[i].Entry(0).Key }
func (m *memorySource) LoadBlock(i int) (*Block, error) { return m.blocks[i], nil }
func (m *memorySource) MayContain(key string) bool      { return true }

// PackBlocks partitions sorted entries (key asc, timestamp desc) into
// encoded blocks of at most blockSize bytes and returns them with the file
// metadata. A block boundary never falls between two versions of one
// key (the block grows past blockSize instead): the sparse index names
// only each block's first key, so blockFor(key) must land on the block
// holding key's newest version without looking at a neighbour. It
// panics when entries are unsorted: files are only ever built from
// sorted iterators, so unsorted input means engine corruption.
// Both the memory backend and the durable SSTable writer build on it so
// the two formats pack identically.
func PackBlocks(entries []Entry, blockSize int) ([]*Block, FileMeta) {
	if blockSize <= 0 {
		blockSize = 64 * 1024
	}
	var blocks []*Block
	var meta FileMeta
	start, bytes := 0, 0
	for i, e := range entries {
		if i > 0 && less(e, entries[i-1]) {
			panic(fmt.Sprintf("kv: unsorted entries packing blocks (%q after %q)", e.Key, entries[i-1].Key))
		}
		if i > start && bytes+e.Size() > blockSize && e.Key != entries[i-1].Key {
			blocks = append(blocks, encodeBlock(entries[start:i]))
			start, bytes = i, 0
		}
		bytes += e.Size()
		meta.Bytes += e.Size()
		meta.Entries++
		if e.Timestamp > meta.MaxTS {
			meta.MaxTS = e.Timestamp
		}
	}
	if meta.Entries > 0 {
		blocks = append(blocks, encodeBlock(entries[start:]))
		meta.MinKey = entries[0].Key
		meta.MaxKey = entries[len(entries)-1].Key
	}
	return blocks, meta
}

// BuildStoreFile packs sorted entries into an in-memory store file.
func BuildStoreFile(id uint64, entries []Entry, blockSize int) *StoreFile {
	blocks, meta := PackBlocks(entries, blockSize)
	return NewStoreFile(id, meta, &memorySource{blocks: blocks})
}

// ID returns the file's unique identifier.
func (f *StoreFile) ID() uint64 { return f.id }

// Bytes returns the file's total data size (for durable files, the real
// on-disk size).
func (f *StoreFile) Bytes() int { return f.meta.Bytes }

// Entries returns the number of entry versions stored.
func (f *StoreFile) Entries() int { return f.meta.Entries }

// NumBlocks returns the number of blocks.
func (f *StoreFile) NumBlocks() int { return len(f.firstKeys) }

// KeyRange returns the smallest and largest keys in the file.
func (f *StoreFile) KeyRange() (minKey, maxKey string) { return f.meta.MinKey, f.meta.MaxKey }

// MaxTimestamp returns the newest timestamp in the file.
func (f *StoreFile) MaxTimestamp() uint64 { return f.meta.MaxTS }

// blockFor returns the index of the block that could contain key, or -1
// when the key is out of range.
func (f *StoreFile) blockFor(key string) int {
	if f.meta.Entries == 0 || key > f.meta.MaxKey {
		return -1
	}
	// The first block whose first key is > key is one past the target.
	i := sort.SearchStrings(f.firstKeys, key)
	if i < len(f.firstKeys) && f.firstKeys[i] == key {
		return i
	}
	if i == 0 {
		if key < f.meta.MinKey {
			return -1
		}
		return 0
	}
	return i - 1
}

// get looks up the newest version of key, loading the candidate block
// through the cache. found=false with a nil error means the key is not in
// this file; the filter check comes first, so a negative lookup on a
// bloom-filtered file reads no data block at all. A found entry comes
// with its block, pinned: its Value aliases the block, so the caller
// releases the block once it is done with the Value. A non-nil trace
// records a span per consulted stage (bloom negative, cache hit, or
// SSTable read).
func (f *StoreFile) get(key string, cache *BlockCache, stats *Counters, tr *obs.Trace) (Entry, *Block, bool, error) {
	bi := f.blockFor(key)
	if bi < 0 {
		return Entry{}, nil, false, nil
	}
	st := tr.StartSpan()
	if !f.src.MayContain(key) {
		if stats != nil {
			stats.filterNegatives.Add(1)
		}
		tr.EndSpan("bloom-negative", st)
		return Entry{}, nil, false, nil
	}
	b, err := f.loadBlock(bi, cache, stats, tr)
	if err != nil {
		return Entry{}, nil, false, err
	}
	if i := b.search(key); i < b.Len() {
		if r := b.raw(i); string(r.key) == key {
			return r.entry(key), b, true, nil // the caller's key: no string is built
		}
	}
	b.Release()
	return Entry{}, nil, false, nil
}

// loadBlock fetches block bi through the cache, pinned for the caller,
// recording hit/miss stats and — when traced — a "block-cache" span for
// a hit or an "sstable-read" span for a source load.
func (f *StoreFile) loadBlock(bi int, cache *BlockCache, stats *Counters, tr *obs.Trace) (*Block, error) {
	st := tr.StartSpan()
	key := blockKey{file: f.cacheID, block: bi}
	if cache != nil {
		if b, ok := cache.get(key); ok {
			if stats != nil {
				stats.cacheHits.Add(1)
			}
			tr.EndSpan("block-cache", st)
			return b, nil
		}
	}
	b, err := f.src.LoadBlock(bi)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		cache.put(key, b)
	}
	if stats != nil {
		stats.cacheMisses.Add(1)
		stats.blocksRead.Add(1)
	}
	tr.EndSpan("sstable-read", st)
	return b, nil
}

// iteratorFrom positions at the first entry with key >= start ("" for
// the whole file), loading blocks through cache. With pins set, the
// iterator appends every block it loads to *pins, whose owner releases
// them once it is done with the entries (see Block); with pins nil it
// keeps them, and the GC frees them.
func (f *StoreFile) iteratorFrom(start string, cache *BlockCache, stats *Counters, pins *[]*Block) Iterator {
	it := &fileIter{f: f, cache: cache, stats: stats, pins: pins, block: len(f.firstKeys)} // exhausted
	if f.meta.Entries == 0 || start > f.meta.MaxKey {
		return it
	}
	it.block = max(f.blockFor(start), 0)
	if it.load(); it.err == nil {
		it.idx = it.cur.search(start) - 1
	}
	return it
}

// fileIter iterates a store file. A block-load failure (possible only for
// disk-backed sources) stops the iteration; Err reports it afterwards.
type fileIter struct {
	f     *StoreFile
	cache *BlockCache
	stats *Counters
	pins  *[]*Block
	block int
	cur   *Block
	idx   int
	err   error
}

// load loads block it.block as the current one.
func (it *fileIter) load() {
	it.cur, it.err = it.f.loadBlock(it.block, it.cache, it.stats, nil)
	if it.err == nil && it.pins != nil {
		*it.pins = append(*it.pins, it.cur)
	}
	it.idx = -1
}

func (it *fileIter) Next() bool {
	for it.err == nil {
		if it.cur != nil && it.idx+1 < it.cur.Len() {
			it.idx++
			return true
		}
		if it.block+1 >= len(it.f.firstKeys) {
			return false
		}
		it.block++
		it.load()
	}
	return false
}

// Entry decodes the current entry; each call decodes it afresh.
func (it *fileIter) Entry() Entry { return it.cur.Entry(it.idx) }

// Err reports a block-load failure encountered during iteration.
func (it *fileIter) Err() error { return it.err }

// iterErr extracts the error from any iterator that tracks one.
func iterErr(it Iterator) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
