package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// Node page kinds.
const (
	pageLeaf     = 1
	pageInternal = 2
	pageOverflow = 3
)

// Size limits. A key must fit inline in a node; values above MaxInlineValue
// are spilled to a chain of overflow pages so sequence data of arbitrary
// length can be stored.
const (
	MaxKeySize      = 512
	MaxInlineValue  = 1024
	overflowRefSize = 12 // u64 head page + u32 total length

	leafHeaderSize     = 1 + 2     // kind, nkeys
	internalHeaderSize = 1 + 2 + 8 // kind, nkeys, child0
	overflowHeaderSize = 1 + 8 + 4 // kind, next, len
	overflowCapacity   = PageSize - overflowHeaderSize
)

// BTree is a copy-on-write B+tree over a Store with variable-length byte
// keys and values. Interior nodes route by separator keys; all data lives
// in the leaf level. Deletes are lazy (no rebalancing); superseded pages
// and freed overflow chains are retired through the store's epoch
// reclamation.
//
// Mutations never modify a committed page in place: the dirtied path from
// leaf to root is rewritten onto fresh pages (Store.WriteCOW), so the root
// id changes on every mutation that touches committed pages. A tree opened
// at a fixed root therefore remains a consistent immutable view of the
// moment that root was current — the basis of snapshot reads.
//
// Concurrency: read operations (Get, Has, Len, First, Seek and cursor
// iteration) are safe to call from many goroutines at once — every node
// read copies page contents out of the store, so readers never share
// mutable state. Mutations (Put, Delete, BulkLoad) require exclusive
// access: callers must ensure no reader of the SAME BTree handle or other
// writer runs concurrently (package relstore enforces this with a
// database-level mutex; snapshot readers use their own BTree handles over
// pinned roots and never synchronize with writers at all).
type BTree struct {
	store *Store
	root  PageID
	size  atomic.Int64 // cached entry count; -1 when unknown (opened from disk)

	// epoch/pinned key this tree's entries in the store's decoded-node
	// cache. A tree opened from a snapshot is pinned to the snapshot's
	// epoch (its pages are immutable for the snapshot's lifetime); an
	// unpinned tree keys by the store's last published epoch, so entries
	// cached before a commit are simply superseded — never stale — after
	// it.
	epoch  uint64
	pinned bool
}

// NewBTree creates an empty tree in the store.
func NewBTree(store *Store) (*BTree, error) {
	id, err := store.Allocate()
	if err != nil {
		return nil, err
	}
	t := &BTree{store: store, root: id}
	if err := t.writeNode(&node{kind: pageLeaf, page: id}); err != nil {
		return nil, err
	}
	return t, nil
}

// OpenBTree opens an existing tree rooted at root.
func OpenBTree(store *Store, root PageID) *BTree {
	t := &BTree{store: store, root: root}
	t.size.Store(-1)
	return t
}

// OpenBTreeAt opens an existing tree rooted at root, pinned to the given
// committed epoch for decoded-node cache keying. Use it for trees opened
// from a snapshot: the snapshot guarantees every reachable page is
// immutable, so (page, epoch) names the decode for the snapshot's whole
// lifetime and concurrent readers of the same epoch share entries.
func OpenBTreeAt(store *Store, root PageID, epoch uint64) *BTree {
	t := &BTree{store: store, root: root, epoch: epoch, pinned: true}
	t.size.Store(-1)
	return t
}

// cacheEpoch resolves the epoch this tree keys cache entries by.
func (t *BTree) cacheEpoch() uint64 {
	if t.pinned {
		return t.epoch
	}
	return t.store.pubEpoch.Load()
}

// Root returns the current root page id. Under copy-on-write it changes on
// every mutation that touches committed pages, so callers persisting trees
// must re-read it after mutations.
func (t *BTree) Root() PageID { return t.root }

// node is the decoded in-memory form of a tree page.
type node struct {
	kind     byte
	page     PageID
	keys     [][]byte
	vals     [][]byte // leaf only; overflow refs kept verbatim
	overflow []bool   // leaf only; vals[i] is a 12-byte overflow ref
	children []PageID // internal only; len(keys)+1
}

// cellSize is the encoded size of the node's i-th key with its value (leaf)
// or right child pointer (internal).
func (n *node) cellSize(i int) int {
	if n.kind == pageLeaf {
		return 4 + len(n.keys[i]) + len(n.vals[i])
	}
	return 2 + len(n.keys[i]) + 8
}

func (n *node) encodedSize() int {
	var sz int
	switch n.kind {
	case pageLeaf:
		sz = leafHeaderSize
	case pageInternal:
		sz = internalHeaderSize
	default:
		return PageSize
	}
	for i := range n.keys {
		sz += n.cellSize(i)
	}
	return sz
}

func (n *node) encode(buf []byte) error {
	if sz := n.encodedSize(); sz > len(buf) {
		return fmt.Errorf("storage: encode node: %d cells need %d bytes, page holds %d", len(n.keys), sz, len(buf))
	}
	buf[0] = n.kind
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	switch n.kind {
	case pageLeaf:
		off := leafHeaderSize
		for i, k := range n.keys {
			v := n.vals[i]
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
			vmeta := uint16(len(v))
			if n.overflow[i] {
				vmeta |= 0x8000
			}
			binary.LittleEndian.PutUint16(buf[off+2:], vmeta)
			off += 4
			off += copy(buf[off:], k)
			off += copy(buf[off:], v)
		}
	case pageInternal:
		binary.LittleEndian.PutUint64(buf[3:], uint64(n.children[0]))
		off := internalHeaderSize
		for i, k := range n.keys {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
			off += 2
			off += copy(buf[off:], k)
			binary.LittleEndian.PutUint64(buf[off:], uint64(n.children[i+1]))
			off += 8
		}
	default:
		return fmt.Errorf("storage: encode node: bad kind %d", n.kind)
	}
	return nil
}

// writeNode writes the node to its page in place. Only valid for pages the
// writer owns (freshly allocated this transaction); COW paths use
// writeNodeCOW.
func (t *BTree) writeNode(n *node) error {
	var buf [PageSize]byte
	if err := n.encode(buf[:]); err != nil {
		return err
	}
	return t.store.WritePage(n.page, buf[:])
}

// writeNodeCOW writes the node with copy-on-write semantics and updates
// n.page to wherever the image landed (a fresh page stays put; a committed
// page is retired and replaced).
func (t *BTree) writeNodeCOW(n *node) error {
	var buf [PageSize]byte
	if err := n.encode(buf[:]); err != nil {
		return err
	}
	id, err := t.store.WriteCOW(n.page, buf[:])
	if err != nil {
		return err
	}
	n.page = id
	return nil
}

func (t *BTree) readNode(id PageID) (*node, error) {
	return t.readNodeC(id, nil)
}

// readNodeC is readNode with per-request counter attribution: page reads
// feed the buffer-pool hit/miss counters and every decoded cell is
// counted, globally always and into c when a trace is active (c nil-safe).
func (t *BTree) readNodeC(id PageID, c *obs.Counters) (*node, error) {
	var buf [PageSize]byte
	if err := t.store.readPageInto(id, buf[:], c); err != nil {
		return nil, err
	}
	// Checked after the read on purpose: the invalidation mark is stored
	// before a replicated apply mutates any pool frame, and pool access
	// serializes on the pool mutex, so a read that saw post-apply bytes is
	// ordered after the mark and fails here instead of decoding them.
	if t.pinned && t.store.snapshotInvalid(t.epoch) {
		return nil, ErrSnapshotInvalidated
	}
	n := &node{kind: buf[0], page: id}
	nkeys := int(binary.LittleEndian.Uint16(buf[1:]))
	switch n.kind {
	case pageLeaf:
		off := leafHeaderSize
		n.keys = make([][]byte, nkeys)
		n.vals = make([][]byte, nkeys)
		n.overflow = make([]bool, nkeys)
		for i := 0; i < nkeys; i++ {
			klen := int(binary.LittleEndian.Uint16(buf[off:]))
			vmeta := binary.LittleEndian.Uint16(buf[off+2:])
			vlen := int(vmeta & 0x7fff)
			n.overflow[i] = vmeta&0x8000 != 0
			off += 4
			n.keys[i] = append([]byte(nil), buf[off:off+klen]...)
			off += klen
			n.vals[i] = append([]byte(nil), buf[off:off+vlen]...)
			off += vlen
		}
	case pageInternal:
		n.children = make([]PageID, 1, nkeys+1)
		n.children[0] = PageID(binary.LittleEndian.Uint64(buf[3:]))
		off := internalHeaderSize
		n.keys = make([][]byte, nkeys)
		for i := 0; i < nkeys; i++ {
			klen := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			n.keys[i] = append([]byte(nil), buf[off:off+klen]...)
			off += klen
			n.children = append(n.children, PageID(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		}
	default:
		return nil, fmt.Errorf("storage: page %d is not a tree node (kind %d)", id, n.kind)
	}
	obs.Engine.Add(obs.CtrCellsDecoded, int64(nkeys))
	c.Add(obs.CtrCellsDecoded, int64(nkeys))
	return n, nil
}

// readNodeShared is readNodeC for strictly read-only descent paths: it
// consults the store's decoded-node cache before touching the page, and
// publishes interior nodes it had to decode. The returned node may be
// shared with other goroutines — callers must not modify it (the mutation
// and maintenance paths keep using readNode/readNodeC, whose nodes are
// private copies they splice in place). Leaves are never cached, so every
// leaf returned here is a private decode and its vals may be handed out.
func (t *BTree) readNodeShared(id PageID, c *obs.Counters) (*node, error) {
	rc := t.store.rcache.Load()
	if rc == nil {
		return t.readNodeC(id, c)
	}
	epoch := t.cacheEpoch()
	if n, ok := rc.get(id, epoch); ok {
		obs.Engine.Add(obs.CtrReadCacheHits, 1)
		c.Add(obs.CtrReadCacheHits, 1)
		return n, nil
	}
	n, err := t.readNodeC(id, c)
	if err != nil {
		return nil, err
	}
	if n.kind == pageInternal {
		// Only cacheable nodes count as misses, so hits+misses tracks the
		// interior working set rather than being diluted by leaf reads.
		obs.Engine.Add(obs.CtrReadCacheMisses, 1)
		c.Add(obs.CtrReadCacheMisses, 1)
		rc.put(id, epoch, n)
	}
	return n, nil
}

// childIndex returns the child to descend into for key: the first separator
// strictly greater than key bounds the child on its left.
func childIndex(n *node, key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(key, n.keys[i]) < 0
	})
}

// leafIndex returns (pos, found) for key within a leaf.
func leafIndex(n *node, key []byte) (int, bool) {
	pos := sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(n.keys[i], key) >= 0
	})
	return pos, pos < len(n.keys) && bytes.Equal(n.keys[pos], key)
}

// Get returns the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	return t.GetC(key, nil)
}

// GetCtx is Get attributing engine counters to the request span carried
// by ctx (if any). The span lookup happens once per call, never per page.
func (t *BTree) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	return t.GetC(key, obs.CountersFrom(ctx))
}

// GetC is Get with explicit per-request counter attribution (c may be
// nil). One call is one root-to-leaf descent.
func (t *BTree) GetC(key []byte, c *obs.Counters) ([]byte, bool, error) {
	obs.Engine.Add(obs.CtrBTreeDescents, 1)
	c.Add(obs.CtrBTreeDescents, 1)
	n, err := t.readNodeShared(t.root, c)
	if err != nil {
		return nil, false, err
	}
	for n.kind == pageInternal {
		if n, err = t.readNodeShared(n.children[childIndex(n, key)], c); err != nil {
			return nil, false, err
		}
	}
	pos, found := leafIndex(n, key)
	if !found {
		return nil, false, nil
	}
	return t.resolveValue(n, pos)
}

func (t *BTree) resolveValue(n *node, pos int) ([]byte, bool, error) {
	if !n.overflow[pos] {
		return n.vals[pos], true, nil
	}
	v, err := t.readOverflow(n.vals[pos])
	return v, err == nil, err
}

// Has reports whether key is present.
func (t *BTree) Has(key []byte) (bool, error) {
	_, ok, err := t.Get(key)
	return ok, err
}

// GetBatch performs many point reads in one pass: keys are visited in
// sorted order and every key landing in the current leaf is answered
// without a fresh descent, so k keys cost one descent per distinct leaf
// instead of k. Results are positional — vals[i]/found[i] answer keys[i]
// regardless of the internal visit order. The context is checked
// periodically; engine counters attribute to the request span carried by
// ctx, if any.
func (t *BTree) GetBatch(ctx context.Context, keys [][]byte) ([][]byte, []bool, error) {
	return t.GetBatchC(ctx, keys, obs.CountersFrom(ctx))
}

// GetBatchC is GetBatch with explicit per-request counter attribution (c
// may be nil).
func (t *BTree) GetBatchC(ctx context.Context, keys [][]byte, c *obs.Counters) ([][]byte, []bool, error) {
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found, nil
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(keys[order[a]], keys[order[b]]) < 0
	})
	var (
		leaf *node
		hi   []byte // first key routed past the current leaf; nil when rightmost
	)
	// descend routes to key's leaf, tracking the tightest upper separator
	// seen on the path: every key below it is guaranteed to live in (or be
	// absent from) this leaf, which is what lets the sorted walk reuse it.
	descend := func(key []byte) error {
		obs.Engine.Add(obs.CtrBTreeDescents, 1)
		c.Add(obs.CtrBTreeDescents, 1)
		n, err := t.readNodeShared(t.root, c)
		if err != nil {
			return err
		}
		hi = nil
		for n.kind == pageInternal {
			idx := childIndex(n, key)
			if idx < len(n.keys) {
				hi = n.keys[idx]
			}
			if n, err = t.readNodeShared(n.children[idx], c); err != nil {
				return err
			}
		}
		leaf = n
		return nil
	}
	for visited, oi := range order {
		if visited&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		key := keys[oi]
		if leaf == nil || (hi != nil && bytes.Compare(key, hi) >= 0) {
			if err := descend(key); err != nil {
				return nil, nil, err
			}
		}
		pos, ok := leafIndex(leaf, key)
		if !ok {
			continue
		}
		v, ok, err := t.resolveValue(leaf, pos)
		if err != nil {
			return nil, nil, err
		}
		vals[oi], found[oi] = v, ok
	}
	return vals, found, nil
}

// GetLeaf returns every key/value pair residing in the leaf that contains
// (or would contain) key, in key order, resolving overflow values. One
// descent buys the whole leaf: batch-friendly readers harvest the
// neighbors a point read already paid to decode instead of descending for
// each of them separately.
func (t *BTree) GetLeaf(ctx context.Context, key []byte) ([][]byte, [][]byte, error) {
	return t.GetLeafC(key, obs.CountersFrom(ctx))
}

// GetLeafC is GetLeaf with explicit per-request counter attribution (c may
// be nil).
func (t *BTree) GetLeafC(key []byte, c *obs.Counters) ([][]byte, [][]byte, error) {
	obs.Engine.Add(obs.CtrBTreeDescents, 1)
	c.Add(obs.CtrBTreeDescents, 1)
	n, err := t.readNodeShared(t.root, c)
	if err != nil {
		return nil, nil, err
	}
	for n.kind == pageInternal {
		if n, err = t.readNodeShared(n.children[childIndex(n, key)], c); err != nil {
			return nil, nil, err
		}
	}
	keys := make([][]byte, len(n.keys))
	vals := make([][]byte, len(n.keys))
	copy(keys, n.keys)
	for i := range n.keys {
		v, _, err := t.resolveValue(n, i)
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
	}
	return keys, vals, nil
}

type splitResult struct {
	key   []byte
	right PageID
}

// Put inserts or replaces the value under key.
func (t *BTree) Put(key, value []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("%w: %d bytes (max %d, min 1)", ErrKeyTooLarge, len(key), MaxKeySize)
	}
	stored, isOverflow := value, false
	if len(value) > MaxInlineValue {
		ref, err := t.writeOverflow(value)
		if err != nil {
			return err
		}
		stored, isOverflow = ref, true
	}
	rootID, split, added, err := t.insert(t.root, key, stored, isOverflow)
	if err != nil {
		return err
	}
	t.root = rootID
	if n := t.size.Load(); added && n >= 0 {
		t.size.Store(n + 1)
	}
	if split == nil {
		return nil
	}
	// Root split: make a new root with two children.
	id, err := t.store.Allocate()
	if err != nil {
		return err
	}
	root := &node{
		kind:     pageInternal,
		page:     id,
		keys:     [][]byte{split.key},
		children: []PageID{t.root, split.right},
	}
	if err := t.writeNode(root); err != nil {
		return err
	}
	t.root = id
	return nil
}

// insert descends to the leaf, mutates it, and copy-on-writes the dirtied
// path back up. It returns the (possibly moved) page id of the subtree
// root, a pending split for the caller to absorb, and whether a new key
// was added.
func (t *BTree) insert(pid PageID, key, value []byte, isOverflow bool) (PageID, *splitResult, bool, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return 0, nil, false, err
	}
	if n.kind == pageLeaf {
		pos, found := leafIndex(n, key)
		added := !found
		if found {
			if n.overflow[pos] {
				if err := t.freeOverflow(n.vals[pos]); err != nil {
					return 0, nil, false, err
				}
			}
			n.vals[pos] = value
			n.overflow[pos] = isOverflow
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[pos+1:], n.keys[pos:])
			n.keys[pos] = append([]byte(nil), key...)
			n.vals = append(n.vals, nil)
			copy(n.vals[pos+1:], n.vals[pos:])
			n.vals[pos] = value
			n.overflow = append(n.overflow, false)
			copy(n.overflow[pos+1:], n.overflow[pos:])
			n.overflow[pos] = isOverflow
		}
		if n.encodedSize() <= PageSize {
			err := t.writeNodeCOW(n)
			return n.page, nil, added, err
		}
		split, err := t.splitLeaf(n)
		return n.page, split, added, err
	}

	idx := childIndex(n, key)
	childID, split, added, err := t.insert(n.children[idx], key, value, isOverflow)
	if err != nil {
		return 0, nil, added, err
	}
	if split == nil && childID == n.children[idx] {
		// Child was fresh and updated in place: this node is untouched.
		return pid, nil, added, nil
	}
	n.children[idx] = childID
	if split != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = split.key
		n.children = append(n.children, 0)
		copy(n.children[idx+2:], n.children[idx+1:])
		n.children[idx+1] = split.right
	}
	if n.encodedSize() <= PageSize {
		err := t.writeNodeCOW(n)
		return n.page, nil, added, err
	}
	up, err := t.splitInternal(n)
	return n.page, up, added, err
}

// splitIndex picks where to cut an over-full node of n cells: the index in
// [1, n-1] whose preceding cells come closest to half of the encoded
// bytes. Cutting at n/2 instead puts a run of large cells that follows many
// small ones into one half, which can then exceed PageSize; by bytes, each
// half stays within half a maximal cell of the midpoint.
func splitIndex(n int, cellSize func(i int) int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += cellSize(i)
	}
	best, bestDist, left := 1, total, 0
	for i := 1; i < n; i++ {
		left += cellSize(i - 1)
		dist := 2*left - total
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

func (t *BTree) splitLeaf(n *node) (*splitResult, error) {
	mid := splitIndex(len(n.keys), n.cellSize)
	rid, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	right := &node{
		kind:     pageLeaf,
		page:     rid,
		keys:     append([][]byte(nil), n.keys[mid:]...),
		vals:     append([][]byte(nil), n.vals[mid:]...),
		overflow: append([]bool(nil), n.overflow[mid:]...),
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.overflow = n.overflow[:mid]
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	if err := t.writeNodeCOW(n); err != nil {
		return nil, err
	}
	return &splitResult{key: append([]byte(nil), right.keys[0]...), right: rid}, nil
}

func (t *BTree) splitInternal(n *node) (*splitResult, error) {
	// keys[mid] moves up, so both halves keep a key only for mid <= n-2.
	mid := splitIndex(len(n.keys)-1, n.cellSize)
	up := n.keys[mid]
	rid, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	right := &node{
		kind:     pageInternal,
		page:     rid,
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]PageID(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	if err := t.writeNodeCOW(n); err != nil {
		return nil, err
	}
	return &splitResult{key: up, right: rid}, nil
}

// Delete removes key, reporting whether it was present. Leaf pages are not
// rebalanced (lazy deletion); overflow chains are retired immediately.
func (t *BTree) Delete(key []byte) (bool, error) {
	rootID, found, err := t.remove(t.root, key)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	t.root = rootID
	if sz := t.size.Load(); sz > 0 {
		t.size.Store(sz - 1)
	}
	return true, nil
}

// remove is the COW mirror of insert for deletion: splice the key out of
// its leaf and rewrite the dirtied path, returning the subtree's possibly
// moved page id.
func (t *BTree) remove(pid PageID, key []byte) (PageID, bool, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return 0, false, err
	}
	if n.kind == pageLeaf {
		pos, found := leafIndex(n, key)
		if !found {
			return pid, false, nil
		}
		if n.overflow[pos] {
			if err := t.freeOverflow(n.vals[pos]); err != nil {
				return 0, false, err
			}
		}
		n.keys = append(n.keys[:pos], n.keys[pos+1:]...)
		n.vals = append(n.vals[:pos], n.vals[pos+1:]...)
		n.overflow = append(n.overflow[:pos], n.overflow[pos+1:]...)
		err := t.writeNodeCOW(n)
		return n.page, true, err
	}
	idx := childIndex(n, key)
	childID, found, err := t.remove(n.children[idx], key)
	if err != nil || !found {
		return pid, found, err
	}
	if childID == n.children[idx] {
		return pid, true, nil
	}
	n.children[idx] = childID
	err = t.writeNodeCOW(n)
	return n.page, true, err
}

// Len returns the number of entries, counting by scan if the cached count
// is unknown (tree opened from disk). Safe for concurrent readers.
func (t *BTree) Len() (int, error) {
	if sz := t.size.Load(); sz >= 0 {
		return int(sz), nil
	}
	n := 0
	c, err := t.First()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for c.Valid() {
		n++
		if err := c.Next(); err != nil {
			return 0, err
		}
	}
	t.size.Store(int64(n))
	return n, nil
}

// writeOverflow spills value into a chain of overflow pages and returns the
// 12-byte reference stored inline in the leaf.
func (t *BTree) writeOverflow(value []byte) ([]byte, error) {
	var head, prev PageID
	var prevBuf [PageSize]byte
	remaining := value
	for len(remaining) > 0 || head == 0 {
		id, err := t.store.Allocate()
		if err != nil {
			return nil, err
		}
		if head == 0 {
			head = id
		}
		if prev != 0 {
			binary.LittleEndian.PutUint64(prevBuf[1:], uint64(id))
			if err := t.store.WritePage(prev, prevBuf[:]); err != nil {
				return nil, err
			}
		}
		n := len(remaining)
		if n > overflowCapacity {
			n = overflowCapacity
		}
		var buf [PageSize]byte
		buf[0] = pageOverflow
		binary.LittleEndian.PutUint32(buf[9:], uint32(n))
		copy(buf[overflowHeaderSize:], remaining[:n])
		remaining = remaining[n:]
		if len(remaining) == 0 {
			if err := t.store.WritePage(id, buf[:]); err != nil {
				return nil, err
			}
		} else {
			prev, prevBuf = id, buf
		}
	}
	ref := make([]byte, overflowRefSize)
	binary.LittleEndian.PutUint64(ref, uint64(head))
	binary.LittleEndian.PutUint32(ref[8:], uint32(len(value)))
	return ref, nil
}

func (t *BTree) readOverflow(ref []byte) ([]byte, error) {
	if len(ref) != overflowRefSize {
		return nil, fmt.Errorf("storage: bad overflow ref of %d bytes", len(ref))
	}
	id := PageID(binary.LittleEndian.Uint64(ref))
	total := int(binary.LittleEndian.Uint32(ref[8:]))
	out := make([]byte, 0, total)
	for id != 0 {
		buf, err := t.store.ReadPage(id)
		if err != nil {
			return nil, err
		}
		// Same post-read invalidation check as readNodeC: overflow chains
		// follow page pointers, so a replicated apply reusing a chain page
		// must surface as an error, not silently spliced bytes.
		if t.pinned && t.store.snapshotInvalid(t.epoch) {
			return nil, ErrSnapshotInvalidated
		}
		if buf[0] != pageOverflow {
			return nil, fmt.Errorf("storage: page %d in overflow chain has kind %d", id, buf[0])
		}
		n := int(binary.LittleEndian.Uint32(buf[9:]))
		out = append(out, buf[overflowHeaderSize:overflowHeaderSize+n]...)
		id = PageID(binary.LittleEndian.Uint64(buf[1:]))
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: overflow chain has %d bytes, want %d", len(out), total)
	}
	return out, nil
}

// freeOverflow retires an overflow chain. Fresh chains return to the free
// list at once; committed chains wait for epoch reclamation so snapshot
// readers can still resolve them.
func (t *BTree) freeOverflow(ref []byte) error {
	if len(ref) != overflowRefSize {
		return fmt.Errorf("storage: bad overflow ref of %d bytes", len(ref))
	}
	id := PageID(binary.LittleEndian.Uint64(ref))
	for id != 0 {
		buf, err := t.store.ReadPage(id)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint64(buf[1:]))
		if err := t.store.Retire(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// RetireAll retires every page of the tree — nodes and overflow chains —
// through the store's epoch reclamation. Used when a relation is dropped:
// snapshot readers opened before the drop keep reading the pages until
// they close, after which the pages return to the free list.
func (t *BTree) RetireAll() error {
	var walk func(id PageID) error
	walk = func(id PageID) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.kind == pageInternal {
			for _, child := range n.children {
				if err := walk(child); err != nil {
					return err
				}
			}
		} else {
			for i, isOv := range n.overflow {
				if isOv {
					if err := t.freeOverflow(n.vals[i]); err != nil {
						return err
					}
				}
			}
		}
		return t.store.Retire(id)
	}
	return walk(t.root)
}

// Cursor iterates leaf entries in ascending key order by keeping the
// descent path (decoded copies of the root-to-leaf nodes) on a stack.
// Because every node is a private decoded copy, a cursor is immune to
// concurrent pool eviction and — when iterating a snapshot-pinned root —
// to concurrent writers. A Cursor is for use by one goroutine, but any
// number of cursors may iterate one tree concurrently. Close releases
// nothing under COW but is kept for API symmetry.
type Cursor struct {
	tree  *BTree
	stack []cursorFrame // ancestors of the current leaf, root first
	leaf  *node
	pos   int
	c     *obs.Counters // per-request attribution target; may be nil
}

// cursorFrame is one internal node on the descent path and the child index
// the path took through it.
type cursorFrame struct {
	n   *node
	idx int
}

// Close releases the cursor. It is safe to call multiple times and on
// exhausted cursors.
func (c *Cursor) Close() {
	c.leaf = nil
	c.stack = nil
}

// descend walks from page id down to a leaf, pushing the internal nodes on
// the cursor stack. With key == nil it follows the leftmost edge;
// otherwise it routes by key.
func (c *Cursor) descend(id PageID, key []byte) error {
	obs.Engine.Add(obs.CtrBTreeDescents, 1)
	c.c.Add(obs.CtrBTreeDescents, 1)
	n, err := c.tree.readNodeShared(id, c.c)
	if err != nil {
		return err
	}
	for n.kind == pageInternal {
		idx := 0
		if key != nil {
			idx = childIndex(n, key)
		}
		c.stack = append(c.stack, cursorFrame{n: n, idx: idx})
		if n, err = c.tree.readNodeShared(n.children[idx], c.c); err != nil {
			return err
		}
	}
	c.leaf = n
	return nil
}

// First positions a cursor at the smallest key.
func (t *BTree) First() (*Cursor, error) { return t.firstC(nil) }

// firstC is First with per-request counter attribution (c may be nil).
func (t *BTree) firstC(ctr *obs.Counters) (*Cursor, error) {
	c := &Cursor{tree: t, c: ctr}
	if err := c.descend(t.root, nil); err != nil {
		return nil, err
	}
	c.pos = 0
	if err := c.skipEmpty(); err != nil {
		return nil, err
	}
	return c, nil
}

// Seek positions a cursor at the first key >= key.
func (t *BTree) Seek(key []byte) (*Cursor, error) { return t.seekC(key, nil) }

// seekC is Seek with per-request counter attribution (c may be nil).
func (t *BTree) seekC(key []byte, ctr *obs.Counters) (*Cursor, error) {
	c := &Cursor{tree: t, c: ctr}
	if err := c.descend(t.root, key); err != nil {
		return nil, err
	}
	c.pos, _ = leafIndex(c.leaf, key)
	if err := c.skipEmpty(); err != nil {
		return nil, err
	}
	return c, nil
}

// Valid reports whether the cursor references an entry.
func (c *Cursor) Valid() bool { return c.leaf != nil && c.pos < len(c.leaf.keys) }

// Key returns the current key. Valid must be true.
func (c *Cursor) Key() []byte { return c.leaf.keys[c.pos] }

// Value returns the current value, resolving overflow chains.
func (c *Cursor) Value() ([]byte, error) {
	v, _, err := c.tree.resolveValue(c.leaf, c.pos)
	return v, err
}

// Next advances to the following entry, crossing leaf boundaries via the
// ancestor stack.
func (c *Cursor) Next() error {
	if !c.Valid() {
		return nil
	}
	c.pos++
	return c.skipEmpty()
}

// skipEmpty advances past exhausted (or lazily emptied) leaves: climb the
// stack to the first ancestor with an unvisited child, then descend its
// leftmost edge.
func (c *Cursor) skipEmpty() error {
	for c.leaf != nil && c.pos >= len(c.leaf.keys) {
		advanced := false
		for len(c.stack) > 0 {
			f := &c.stack[len(c.stack)-1]
			if f.idx+1 < len(f.n.children) {
				f.idx++
				if err := c.descend(f.n.children[f.idx], nil); err != nil {
					return err
				}
				c.pos = 0
				advanced = true
				break
			}
			c.stack = c.stack[:len(c.stack)-1]
		}
		if !advanced {
			c.Close()
			return nil
		}
	}
	return nil
}

// Check verifies the structural invariants of the tree: separator ordering,
// leaf key ordering, key range containment, and uniform leaf depth. It is
// used by tests and by the crimson CLI's fsck command.
func (t *BTree) Check() error {
	depth := -1
	var walk func(id PageID, lo, hi []byte, d int) error
	walk = func(id PageID, lo, hi []byte, d int) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for i, k := range n.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("storage: check: page %d key %d below range", id, i)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("storage: check: page %d key %d above range", id, i)
			}
			if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
				return fmt.Errorf("storage: check: page %d keys out of order at %d", id, i)
			}
		}
		if n.kind == pageLeaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("storage: check: leaf %d at depth %d, want %d", id, d, depth)
			}
			return nil
		}
		for i, child := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(child, clo, chi, d+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, nil, nil, 0)
}
