package server

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
)

// resultCache is a bounded LRU over query results. Keys are
// "<tree>\x00<version>\x00<op>\x00<canonical args>", where the version is
// the shard epoch the tree's current incarnation was committed at: an
// entry names one immutable incarnation of one tree, so nothing ever has
// to be updated or dropped: reloading or deleting a tree moves its version
// (versions only grow), which strands the old keys — no lookup can reach
// them again, and they age out of the LRU. A capacity of zero disables the
// cache entirely.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val any
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// cacheKey builds a canonical cache key for op on one incarnation (ver) of
// a tree.
func cacheKey(tree string, ver uint64, op string, args ...string) string {
	return tree + "\x00" + strconv.FormatUint(ver, 10) + "\x00" + op + "\x00" + strings.Join(args, "\x1f")
}

func (c *resultCache) get(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *resultCache) put(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// purge drops every entry (promote resets all epoch-keyed state).
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
