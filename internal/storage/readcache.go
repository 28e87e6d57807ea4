package storage

import (
	"sync"

	"repro/internal/obs"
)

// This file implements the version-keyed decoded-page cache behind the hot
// read path. The cache holds *decoded* interior B+tree nodes keyed by
// (PageID, epoch): because copy-on-write commits never modify a published
// page in place, a (page, epoch) pair names immutable bytes for as long as
// the page exists, so entries need no invalidation while cached — they are
// only dropped when something makes the page id name other bytes:
//
//   - Store.free: the page returns to the free list (epoch reclamation,
//     explicit frees, reclamation sweeps) and its id may be reallocated
//     with different contents.
//   - Store.WritePage / the fresh branch of Store.WriteCOW: the writer
//     gives a page it owns a new image (fresh pages are the writer's to
//     rewrite until the next commit).
//
// An entry is a node: the page's immutable image and its cell-offset table
// (see btree.go). It holds two pointers, whatever the number of cells, so
// the cache's budget is a few thousand objects for the collector to look at
// rather than one per separator key; and it keeps its image alive by itself,
// so an entry outlives the pool frame it was decoded from.
//
// Leaves are not cached, for economy rather than safety — a leaf's values
// are handed out as sub-slices of an immutable image either way. Indexing a
// leaf's cells is one pass over their headers, cheap next to the descent
// that led there, while every cached leaf would pin a 4 KiB image the
// buffer pool already budgets for: the leaf level is the bulk of a tree,
// and the cache would become a second, unaccounted pool. Interior nodes are
// few, hot, and on the path of every descent.
//
// The cache is sharded to keep it lock-light: each shard is an
// independently locked LRU with its own slice of the byte budget, and a
// page's entries always land on the shard picked by hashing the page id,
// so drop(id) touches exactly one shard and only that page's entries.

// readCacheShards is the number of independently locked cache shards.
const readCacheShards = 16

// rcEntry is one cached decoded node on a shard's intrusive LRU list.
type rcEntry struct {
	page       PageID
	epoch      uint64
	n          *node
	cost       int64
	prev, next *rcEntry // LRU list; nil-terminated at both ends
}

// rcShard is one lock domain of the cache. Entries are indexed per page so
// dropping a page touches exactly its own entries, never the whole shard.
type rcShard struct {
	mu    sync.Mutex
	pages map[PageID]map[uint64]*rcEntry
	head  *rcEntry // most recently used
	tail  *rcEntry // least recently used
	used  int64
	limit int64
}

// readCache is a bounded, sharded cache of decoded interior nodes. All
// methods are safe for concurrent use.
type readCache struct {
	shards [readCacheShards]rcShard
}

// newReadCache builds a cache with the given total byte budget, split
// evenly across the shards. Budgets too small to hold a node simply cache
// nothing (put refuses oversized entries), so any non-negative size is
// valid.
func newReadCache(totalBytes int64) *readCache {
	c := &readCache{}
	per := totalBytes / readCacheShards
	for i := range c.shards {
		c.shards[i].pages = make(map[PageID]map[uint64]*rcEntry)
		c.shards[i].limit = per
	}
	return c
}

// shardFor hashes the page id onto a shard. All epochs of one page map to
// the same shard so drop(id) is a single-shard operation.
func (c *readCache) shardFor(id PageID) *rcShard {
	h := uint64(id) * 0x9e3779b97f4a7c15 // Fibonacci hashing
	return &c.shards[h>>(64-4)]          // top 4 bits: 16 shards
}

// nodeCost is the resident footprint of a cached node: the page image it
// keeps alive, its offset table, and the node and entry structs.
func nodeCost(n *node) int64 {
	return int64(PageSize + 2*len(n.offs) + 160)
}

// get returns the cached node for (id, epoch) and marks it most recently
// used. The returned node is shared (and, like every node, immutable).
func (c *readCache) get(id PageID, epoch uint64) (*node, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.pages[id][epoch]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.moveToFront(e)
	n := e.n
	sh.mu.Unlock()
	return n, true
}

// put publishes a decoded node under (id, epoch), evicting from the cold
// end of the shard until it fits. Nodes larger than the shard budget are
// not cached. Racing puts of the same key keep the first entry.
func (c *readCache) put(id PageID, epoch uint64, n *node) {
	cost := nodeCost(n)
	sh := c.shardFor(id)
	sh.mu.Lock()
	if cost > sh.limit {
		sh.mu.Unlock()
		return
	}
	byEpoch, ok := sh.pages[id]
	if !ok {
		byEpoch = make(map[uint64]*rcEntry, 1)
		sh.pages[id] = byEpoch
	} else if _, dup := byEpoch[epoch]; dup {
		sh.mu.Unlock()
		return
	}
	e := &rcEntry{page: id, epoch: epoch, n: n, cost: cost}
	byEpoch[epoch] = e
	sh.pushFront(e)
	sh.used += cost
	evicted := int64(0)
	for sh.used > sh.limit && sh.tail != nil && sh.tail != e {
		evicted++
		sh.removeLocked(sh.tail)
	}
	sh.mu.Unlock()
	if evicted > 0 {
		obs.Engine.Add(obs.CtrReadCacheEvicts, evicted)
	}
}

// drop removes every epoch's entry for the page. Called when the page
// returns to the free list or is rewritten in place by the writer.
func (c *readCache) drop(id PageID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	for _, e := range sh.pages[id] {
		sh.removeLocked(e)
	}
	sh.mu.Unlock()
}

// stats reports entry count and resident bytes across all shards.
func (c *readCache) stats() (entries int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, byEpoch := range sh.pages {
			entries += len(byEpoch)
		}
		bytes += sh.used
		sh.mu.Unlock()
	}
	return entries, bytes
}

// pushFront links a new entry at the hot end. Callers hold sh.mu.
func (sh *rcShard) pushFront(e *rcEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront marks an entry most recently used. Callers hold sh.mu.
func (sh *rcShard) moveToFront(e *rcEntry) {
	if sh.head == e {
		return
	}
	// Unlink, then relink at the head.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.tail == e {
		sh.tail = e.prev
	}
	sh.pushFront(e)
}

// removeLocked unlinks and deletes an entry. Callers hold sh.mu.
func (sh *rcShard) removeLocked(e *rcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	byEpoch := sh.pages[e.page]
	delete(byEpoch, e.epoch)
	if len(byEpoch) == 0 {
		delete(sh.pages, e.page)
	}
	sh.used -= e.cost
}
