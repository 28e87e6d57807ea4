package server

import (
	"container/list"
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/queryrepo"
)

// resultCache is a bounded LRU over query results. Keys are
// "<tree>\x00<version>\x00<kind>\x00<canonical value's JSON>", where the
// version is the one a handle on the tree reports (treestore.Tree.Version):
// an entry names one immutable incarnation of one tree, so nothing ever has
// to be updated or dropped: reloading a tree gives it a later version, which
// strands the old keys — only a snapshot of the old incarnation can reach
// them, and they age out of the LRU. A capacity of zero disables the cache
// entirely.
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

// cacheKey is the cache key of v on one incarnation (ver) of its tree: the
// tree, the version, and the kind and encoding of v's canonical form.
func cacheKey(ver uint64, v queryrepo.Query) string {
	raw, _ := json.Marshal(queryrepo.Canonical(v)) // the cached kinds hold strings only: no error
	return v.TreeName() + "\x00" + strconv.FormatUint(ver, 10) + "\x00" + v.Kind() + "\x00" + string(raw)
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

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
