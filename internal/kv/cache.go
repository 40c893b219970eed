package kv

import (
	"container/list"
	"sync"
)

// blockKey identifies a cached block by file and block index.
type blockKey struct {
	file  uint64
	block int
}

// BlockCache is a byte-capacity LRU over store-file blocks, the analogue
// of HBase's block cache. Its capacity is the knob MeT's node profiles
// tune: read-profile nodes get 55% of the heap, write-profile nodes 10%.
//
// The cache is safe for concurrent use: one region server shares a
// single BlockCache across all of its regions' stores, whose readers run
// in parallel under their stores' read locks. Every lookup mutates the
// LRU recency list, so even get takes the internal mutex; the critical
// sections are a few pointer moves, which keeps the cache far from being
// the bottleneck the coarse store lock used to be.
type BlockCache struct {
	mu       sync.Mutex
	capacity int
	used     int
	order    *list.List // front = most recently used
	items    map[blockKey]*list.Element
}

type cacheItem struct {
	key   blockKey
	block *Block
}

// NewBlockCache returns a cache with the given byte capacity. A zero or
// negative capacity yields a cache that stores nothing (all misses),
// which is still safe to use.
func NewBlockCache(capacity int) *BlockCache {
	return &BlockCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[blockKey]*list.Element),
	}
}

// get returns the cached block and promotes it to most recently used.
func (c *BlockCache) get(k blockKey) (*Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).block, true
}

// put inserts a block, evicting least-recently-used blocks as needed.
// Blocks larger than the whole capacity are not cached.
func (c *BlockCache) put(k blockKey, b *Block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b.Bytes() > c.capacity {
		return
	}
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		old := el.Value.(*cacheItem)
		c.used += b.Bytes() - old.block.Bytes()
		old.block = b
	} else {
		el := c.order.PushFront(&cacheItem{key: k, block: b})
		c.items[k] = el
		c.used += b.Bytes()
	}
	for c.used > c.capacity {
		c.evictOldestLocked()
	}
}

func (c *BlockCache) evictOldestLocked() {
	el := c.order.Back()
	if el == nil {
		return
	}
	item := el.Value.(*cacheItem)
	c.order.Remove(el)
	delete(c.items, item.key)
	c.used -= item.block.Bytes()
}

// invalidateFile drops every cached block of the given file; called when
// compaction retires a file.
func (c *BlockCache) invalidateFile(fileID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.items {
		if k.file == fileID {
			item := el.Value.(*cacheItem)
			c.order.Remove(el)
			delete(c.items, k)
			c.used -= item.block.Bytes()
		}
	}
}

// Used returns the current cached bytes.
func (c *BlockCache) Used() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
