package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
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
// Reads happen in place. A node read takes the page's immutable image from
// the buffer pool (no copy) and indexes its cells; the keys and values a
// read returns — Get, GetBatch, Leaf, Scan, Cursor.Key/Value — are
// sub-slices of that image (overflow values are assembled into a buffer of
// their own). They stay valid and unchanged for as long as the caller holds
// them, whatever the writer, the pool or a replicated apply do meanwhile,
// and must not be written into. Holding one keeps its whole 4 KiB image
// alive, so copy out what is kept for long.
//
// Concurrency: read operations (Get, Has, Len, First, Seek and cursor
// iteration) are safe to call from many goroutines at once — readers share
// nothing mutable. Mutations (Put, Delete, BulkLoad) require exclusive
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
	if err := t.writeNode(&cells{kind: pageLeaf, page: id}); err != nil {
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

// node is a tree page read in place: the page's immutable image and the
// offset of every cell in it. decodeNode has checked that each cell lies
// inside the page, so the accessors slice without further checks; what they
// return aliases the image (capacity clipped, so an append cannot reach the
// page). A node holds no pointers besides its two slices and is never
// modified, which is what lets the decoded-node cache share one among
// readers; the mutation paths turn it into cells to splice.
type node struct {
	kind byte
	page PageID
	data []byte   // the page image
	offs []uint16 // offs[i] is where cell i starts in data
	end  int      // where the last cell ends
}

func (n *node) nkeys() int { return len(n.offs) }

// key returns the i-th key.
func (n *node) key(i int) []byte {
	o := int(n.offs[i])
	klen := int(binary.LittleEndian.Uint16(n.data[o:]))
	if n.kind == pageLeaf {
		o += 4
	} else {
		o += 2
	}
	return n.data[o : o+klen : o+klen]
}

// val returns the stored value of leaf cell i: the value itself, or its
// 12-byte overflow ref when overflow(i).
func (n *node) val(i int) []byte {
	o := int(n.offs[i])
	klen := int(binary.LittleEndian.Uint16(n.data[o:]))
	vlen := int(binary.LittleEndian.Uint16(n.data[o+2:]) & 0x7fff)
	o += 4 + klen
	return n.data[o : o+vlen : o+vlen]
}

// overflow reports whether leaf cell i stores an overflow ref.
func (n *node) overflow(i int) bool {
	return binary.LittleEndian.Uint16(n.data[int(n.offs[i])+2:])&0x8000 != 0
}

// child returns the i-th child of an internal node, i in [0, nkeys].
func (n *node) child(i int) PageID {
	if i == 0 {
		return PageID(binary.LittleEndian.Uint64(n.data[3:]))
	}
	return PageID(binary.LittleEndian.Uint64(n.data[n.cellEnd(i-1)-8:]))
}

func (n *node) cellEnd(i int) int {
	if i+1 < len(n.offs) {
		return int(n.offs[i+1])
	}
	return n.end
}

// decodeNode indexes the cells of a tree page. It is the one place page
// bytes are interpreted as a node, and it trusts none of them: a cell count
// or a length that would reach past the page is ErrCorruptPage naming the
// page — never a slice out of bounds.
func decodeNode(id PageID, data []byte) (*node, error) {
	if len(data) != PageSize {
		return nil, fmt.Errorf("%w: page %d image is %d bytes", ErrCorruptPage, id, len(data))
	}
	n := &node{kind: data[0], page: id, data: data}
	var off, head, tail int // first cell, fixed bytes before and after a cell's key (and value)
	switch n.kind {
	case pageLeaf:
		off, head, tail = leafHeaderSize, 4, 0
	case pageInternal:
		off, head, tail = internalHeaderSize, 2, 8
	default:
		return nil, fmt.Errorf("%w: page %d is not a tree node (kind %d)", ErrCorruptPage, id, n.kind)
	}
	nkeys := int(binary.LittleEndian.Uint16(data[1:]))
	if off+nkeys*(head+tail) > PageSize {
		return nil, fmt.Errorf("%w: page %d claims %d cells", ErrCorruptPage, id, nkeys)
	}
	n.offs = make([]uint16, nkeys)
	for i := range n.offs {
		if off+head > PageSize {
			return nil, fmt.Errorf("%w: page %d cell %d starts at %d", ErrCorruptPage, id, i, off)
		}
		n.offs[i] = uint16(off)
		size := head + int(binary.LittleEndian.Uint16(data[off:])) + tail
		if n.kind == pageLeaf {
			size += int(binary.LittleEndian.Uint16(data[off+2:]) & 0x7fff)
		}
		if off += size; off > PageSize {
			return nil, fmt.Errorf("%w: page %d cell %d ends at %d", ErrCorruptPage, id, i, off)
		}
	}
	n.end = off
	return n, nil
}

// cells is the spliceable form of a node: what Put, Delete and BulkLoad
// edit and then encode onto a page. The keys and values alias whatever they
// were taken from — a page image (edit), the caller's arguments — and are
// only read until encode has copied them out.
type cells struct {
	kind     byte
	page     PageID
	keys     [][]byte
	vals     [][]byte // leaf only; overflow refs kept verbatim
	overflow []bool   // leaf only; vals[i] is a 12-byte overflow ref
	children []PageID // internal only; len(keys)+1
}

// edit lists the node's cells for splicing, with room for one more.
func (n *node) edit() *cells {
	nk := n.nkeys()
	e := &cells{kind: n.kind, page: n.page, keys: make([][]byte, nk, nk+1)}
	for i := range e.keys {
		e.keys[i] = n.key(i)
	}
	if n.kind == pageLeaf {
		e.vals = make([][]byte, nk, nk+1)
		e.overflow = make([]bool, nk, nk+1)
		for i := range e.vals {
			e.vals[i], e.overflow[i] = n.val(i), n.overflow(i)
		}
		return e
	}
	e.children = make([]PageID, nk+1, nk+2)
	for i := range e.children {
		e.children[i] = n.child(i)
	}
	return e
}

// cellSize is the encoded size of the i-th key with its value (leaf) or
// right child pointer (internal).
func (e *cells) cellSize(i int) int {
	if e.kind == pageLeaf {
		return 4 + len(e.keys[i]) + len(e.vals[i])
	}
	return 2 + len(e.keys[i]) + 8
}

func (e *cells) encodedSize() int {
	var sz int
	switch e.kind {
	case pageLeaf:
		sz = leafHeaderSize
	case pageInternal:
		sz = internalHeaderSize
	default:
		return PageSize
	}
	for i := range e.keys {
		sz += e.cellSize(i)
	}
	return sz
}

func (e *cells) encode(buf []byte) error {
	if sz := e.encodedSize(); sz > len(buf) {
		return fmt.Errorf("storage: encode node: %d cells need %d bytes, page holds %d", len(e.keys), sz, len(buf))
	}
	buf[0] = e.kind
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(e.keys)))
	switch e.kind {
	case pageLeaf:
		off := leafHeaderSize
		for i, k := range e.keys {
			v := e.vals[i]
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
			vmeta := uint16(len(v))
			if e.overflow[i] {
				vmeta |= 0x8000
			}
			binary.LittleEndian.PutUint16(buf[off+2:], vmeta)
			off += 4
			off += copy(buf[off:], k)
			off += copy(buf[off:], v)
		}
	case pageInternal:
		binary.LittleEndian.PutUint64(buf[3:], uint64(e.children[0]))
		off := internalHeaderSize
		for i, k := range e.keys {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(k)))
			off += 2
			off += copy(buf[off:], k)
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.children[i+1]))
			off += 8
		}
	default:
		return fmt.Errorf("storage: encode node: bad kind %d", e.kind)
	}
	return nil
}

// image encodes the cells onto a new page image, which the store then owns.
func (e *cells) image() ([]byte, error) {
	img := make([]byte, PageSize)
	if err := e.encode(img); err != nil {
		return nil, err
	}
	return img, nil
}

// writeNode writes the cells to their page, which keeps its id. Only valid
// for pages the writer owns (freshly allocated this transaction); COW paths
// use writeNodeCOW.
func (t *BTree) writeNode(e *cells) error {
	img, err := e.image()
	if err != nil {
		return err
	}
	return t.store.WritePage(e.page, img)
}

// writeNodeCOW writes the cells with copy-on-write semantics and updates
// e.page to wherever the image landed (a fresh page stays put; a committed
// page is retired and replaced).
func (t *BTree) writeNodeCOW(e *cells) error {
	img, err := e.image()
	if err != nil {
		return err
	}
	id, err := t.store.WriteCOW(e.page, img)
	if err != nil {
		return err
	}
	e.page = id
	return nil
}

func (t *BTree) readNode(id PageID) (*node, error) {
	return t.readNodeC(id, nil)
}

// readNodeC is readNode with per-request counter attribution: page reads
// feed the buffer-pool hit/miss counters and the cells of every node
// visited are counted, globally always and into c when a trace is active
// (c nil-safe).
func (t *BTree) readNodeC(id PageID, c *obs.Counters) (*node, error) {
	img, err := t.store.readPage(id, c)
	if err != nil {
		return nil, err
	}
	// Checked after the read on purpose: the invalidation mark is stored
	// before a replicated apply replaces any pool frame, and pool access
	// serializes on the pool mutex, so a read that got a post-apply image is
	// ordered after the mark and fails here instead of decoding it.
	if t.pinned && t.store.snapshotInvalid(t.epoch) {
		return nil, ErrSnapshotInvalidated
	}
	n, err := decodeNode(id, img)
	if err != nil {
		return nil, err
	}
	obs.Engine.Add(obs.CtrCellsDecoded, int64(n.nkeys()))
	c.Add(obs.CtrCellsDecoded, int64(n.nkeys()))
	return n, nil
}

// readNodeShared is readNodeC for the read-only descent paths: it consults
// the store's decoded-node cache before touching the page, and publishes
// the interior nodes it had to decode. Nodes are immutable, so a cached one
// is shared as is; the mutation and maintenance paths read through
// readNode, past the cache, because they also read pages the writer has
// rewritten since the last commit.
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
	lo, hi := 0, n.nkeys()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(key, n.key(mid)) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex returns (pos, found) for key within a leaf: pos is the first
// cell whose key is >= key.
func leafIndex(n *node, key []byte) (int, bool) {
	lo, hi := 0, n.nkeys()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n.nkeys() && bytes.Equal(n.key(lo), key)
}

// leafFor descends from the root to the leaf key routes to. One call is one
// root-to-leaf descent.
func (t *BTree) leafFor(key []byte, c *obs.Counters) (*node, error) {
	obs.Engine.Add(obs.CtrBTreeDescents, 1)
	c.Add(obs.CtrBTreeDescents, 1)
	n, err := t.readNodeShared(t.root, c)
	for err == nil && n.kind == pageInternal {
		n, err = t.readNodeShared(n.child(childIndex(n, key)), c)
	}
	return n, err
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
	n, err := t.leafFor(key, c)
	if err != nil {
		return nil, false, err
	}
	pos, found := leafIndex(n, key)
	if !found {
		return nil, false, nil
	}
	return t.resolveValue(n, pos)
}

func (t *BTree) resolveValue(n *node, pos int) ([]byte, bool, error) {
	if !n.overflow(pos) {
		return n.val(pos), true, nil
	}
	v, err := t.readOverflow(n.val(pos))
	return v, err == nil, err
}

// Has reports whether key is present.
func (t *BTree) Has(key []byte) (bool, error) {
	_, ok, err := t.Get(key)
	return ok, err
}

// sortedOrder returns the indexes of keys in ascending key order.
func sortedOrder(keys [][]byte) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	return order
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
	cur := Cursor{tree: t, c: c}
	for visited, oi := range sortedOrder(keys) {
		if visited&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		ok, err := cur.locate(keys[oi])
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		if vals[oi], found[oi], err = t.resolveValue(cur.leaf, cur.pos); err != nil {
			return nil, nil, err
		}
	}
	return vals, found, nil
}

// SeekBatchC is the batched form of Seek: for every key it reports the
// first entry at or after it — found[i] and vals[i] are that entry's key and
// value, found[i] nil when no entry follows keys[i]. Like GetBatchC it
// visits the keys in sorted order and moves on from the current leaf only
// when a key routes past it, so a sweep costs one descent per distinct leaf
// it lands in. It is what resolves a batch of prefix lookups on a secondary
// index; like the one-entry scans it stands for, it counts every entry it
// reports as a row scanned.
func (t *BTree) SeekBatchC(ctx context.Context, keys [][]byte, c *obs.Counters) (found, vals [][]byte, err error) {
	found = make([][]byte, len(keys))
	vals = make([][]byte, len(keys))
	cur := Cursor{tree: t, c: c}
	rows := int64(0)
	defer func() {
		obs.Engine.Add(obs.CtrRowsScanned, rows)
		c.Add(obs.CtrRowsScanned, rows)
	}()
	for visited, oi := range sortedOrder(keys) {
		if visited&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		if _, err := cur.locate(keys[oi]); err != nil {
			return nil, nil, err
		}
		if err := cur.skipEmpty(); err != nil {
			return nil, nil, err
		}
		if !cur.Valid() {
			break // off the end of the tree: no entry follows this key or any later one
		}
		found[oi] = cur.Key()
		if vals[oi], err = cur.Value(); err != nil {
			return nil, nil, err
		}
		rows++
	}
	return found, vals, nil
}

// Leaf is one leaf of a tree held in place: the page's immutable image and
// the offsets of its cells. It is what a reader keeps of a descent so that a
// second key routing to the same leaf costs a binary search, not another
// walk from the root. Keys and values are sub-slices of the image, under the
// aliasing rules of the BTree doc comment: they stay what they were whatever
// the writer, the pool or a replicated apply do to the page afterwards, and a
// held Leaf keeps its 4 KiB image alive — hold them for a request, not
// longer. A Leaf comes from LeafC; the zero value is not usable.
type Leaf struct {
	t *BTree
	n *node
}

// LeafC descends to the leaf that contains (or would contain) key, with
// explicit per-request counter attribution (c may be nil). One call is one
// root-to-leaf descent.
func (t *BTree) LeafC(key []byte, c *obs.Counters) (Leaf, error) {
	n, err := t.leafFor(key, c)
	if err != nil {
		return Leaf{}, err
	}
	return Leaf{t: t, n: n}, nil
}

// Len returns the number of entries in the leaf.
func (l Leaf) Len() int { return l.n.nkeys() }

// Key returns the i-th key, i in [0, Len).
func (l Leaf) Key(i int) []byte { return l.n.key(i) }

// Val returns the i-th value, resolving an overflow chain (the one case
// that reads further pages, and so the one that can fail).
func (l Leaf) Val(i int) ([]byte, error) {
	v, _, err := l.t.resolveValue(l.n, i)
	return v, err
}

// Find returns the position of the first entry whose key is >= key, and
// whether that entry holds key itself.
func (l Leaf) Find(key []byte) (int, bool) { return leafIndex(l.n, key) }

type splitResult struct {
	key   []byte
	right PageID
}

// Put inserts or replaces the value under key. Neither slice is retained.
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
	root := &cells{
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

// insert descends to the leaf, splices the cell in, and copy-on-writes the
// dirtied path back up. It returns the (possibly moved) page id of the
// subtree root, a pending split for the caller to absorb, and whether a new
// key was added. Nodes on the path are read in place and listed as cells
// only where they change.
func (t *BTree) insert(pid PageID, key, value []byte, isOverflow bool) (PageID, *splitResult, bool, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return 0, nil, false, err
	}
	if n.kind == pageLeaf {
		pos, found := leafIndex(n, key)
		e := n.edit()
		if found {
			if e.overflow[pos] {
				if err := t.freeOverflow(e.vals[pos]); err != nil {
					return 0, nil, false, err
				}
			}
			e.vals[pos] = value
			e.overflow[pos] = isOverflow
		} else {
			e.keys = slices.Insert(e.keys, pos, key)
			e.vals = slices.Insert(e.vals, pos, value)
			e.overflow = slices.Insert(e.overflow, pos, isOverflow)
		}
		if e.encodedSize() <= PageSize {
			err := t.writeNodeCOW(e)
			return e.page, nil, !found, err
		}
		split, err := t.splitLeaf(e)
		return e.page, split, !found, err
	}

	idx := childIndex(n, key)
	child := n.child(idx)
	childID, split, added, err := t.insert(child, key, value, isOverflow)
	if err != nil {
		return 0, nil, added, err
	}
	if split == nil && childID == child {
		// Child was fresh and kept its id: this node is untouched.
		return pid, nil, added, nil
	}
	e := n.edit()
	e.children[idx] = childID
	if split != nil {
		e.keys = slices.Insert(e.keys, idx, split.key)
		e.children = slices.Insert(e.children, idx+1, split.right)
	}
	if e.encodedSize() <= PageSize {
		err := t.writeNodeCOW(e)
		return e.page, nil, added, err
	}
	up, err := t.splitInternal(e)
	return e.page, up, added, err
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

func (t *BTree) splitLeaf(e *cells) (*splitResult, error) {
	mid := splitIndex(len(e.keys), e.cellSize)
	rid, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	right := &cells{
		kind:     pageLeaf,
		page:     rid,
		keys:     e.keys[mid:],
		vals:     e.vals[mid:],
		overflow: e.overflow[mid:],
	}
	e.keys = e.keys[:mid]
	e.vals = e.vals[:mid]
	e.overflow = e.overflow[:mid]
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	if err := t.writeNodeCOW(e); err != nil {
		return nil, err
	}
	return &splitResult{key: right.keys[0], right: rid}, nil
}

func (t *BTree) splitInternal(e *cells) (*splitResult, error) {
	// keys[mid] moves up, so both halves keep a key only for mid <= n-2.
	mid := splitIndex(len(e.keys)-1, e.cellSize)
	up := e.keys[mid]
	rid, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	right := &cells{
		kind:     pageInternal,
		page:     rid,
		keys:     e.keys[mid+1:],
		children: e.children[mid+1:],
	}
	e.keys = e.keys[:mid]
	e.children = e.children[:mid+1]
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	if err := t.writeNodeCOW(e); err != nil {
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
		if n.overflow(pos) {
			if err := t.freeOverflow(n.val(pos)); err != nil {
				return 0, false, err
			}
		}
		e := n.edit()
		e.keys = slices.Delete(e.keys, pos, pos+1)
		e.vals = slices.Delete(e.vals, pos, pos+1)
		e.overflow = slices.Delete(e.overflow, pos, pos+1)
		err := t.writeNodeCOW(e)
		return e.page, true, err
	}
	idx := childIndex(n, key)
	child := n.child(idx)
	childID, found, err := t.remove(child, key)
	if err != nil || !found {
		return pid, found, err
	}
	if childID == child {
		return pid, true, nil
	}
	e := n.edit()
	e.children[idx] = childID
	err = t.writeNodeCOW(e)
	return e.page, true, err
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
	// Every page names its successor, so the chain's ids come first.
	ids := make([]PageID, max(1, (len(value)+overflowCapacity-1)/overflowCapacity))
	for i := range ids {
		id, err := t.store.Allocate()
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	for i, id := range ids {
		chunk := value[i*overflowCapacity : min(len(value), (i+1)*overflowCapacity)]
		img := make([]byte, PageSize)
		img[0] = pageOverflow
		if i+1 < len(ids) {
			binary.LittleEndian.PutUint64(img[1:], uint64(ids[i+1]))
		}
		binary.LittleEndian.PutUint32(img[9:], uint32(len(chunk)))
		copy(img[overflowHeaderSize:], chunk)
		if err := t.store.WritePage(id, img); err != nil {
			return nil, err
		}
	}
	ref := make([]byte, overflowRefSize)
	binary.LittleEndian.PutUint64(ref, uint64(ids[0]))
	binary.LittleEndian.PutUint32(ref[8:], uint32(len(value)))
	return ref, nil
}

// overflowPage reads one page of an overflow chain: its payload and the id
// of the page that follows (0 at the end).
func (t *BTree) overflowPage(id PageID) (payload []byte, next PageID, err error) {
	img, err := t.store.ReadPage(id)
	if err != nil {
		return nil, 0, err
	}
	// Same post-read invalidation check as readNodeC: overflow chains
	// follow page pointers, so a replicated apply reusing a chain page
	// must surface as an error, not silently spliced bytes.
	if t.pinned && t.store.snapshotInvalid(t.epoch) {
		return nil, 0, ErrSnapshotInvalidated
	}
	if img[0] != pageOverflow {
		return nil, 0, fmt.Errorf("%w: page %d in overflow chain has kind %d", ErrCorruptPage, id, img[0])
	}
	n := int(binary.LittleEndian.Uint32(img[9:]))
	if n > overflowCapacity {
		return nil, 0, fmt.Errorf("%w: overflow page %d claims %d bytes", ErrCorruptPage, id, n)
	}
	return img[overflowHeaderSize : overflowHeaderSize+n], PageID(binary.LittleEndian.Uint64(img[1:])), nil
}

func (t *BTree) readOverflow(ref []byte) ([]byte, error) {
	if len(ref) != overflowRefSize {
		return nil, fmt.Errorf("storage: bad overflow ref of %d bytes", len(ref))
	}
	id := PageID(binary.LittleEndian.Uint64(ref))
	total := int(binary.LittleEndian.Uint32(ref[8:]))
	// The ref is as untrusted as the pages: grow towards total rather than
	// reserve it, and stop a chain that runs past it (or in a circle).
	out := make([]byte, 0, min(total, 16*overflowCapacity))
	for id != 0 && len(out) <= total {
		payload, next, err := t.overflowPage(id)
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, fmt.Errorf("%w: overflow page %d is empty", ErrCorruptPage, id)
		}
		out = append(out, payload...)
		id = next
	}
	if len(out) != total {
		return nil, fmt.Errorf("%w: overflow chain has %d bytes, want %d", ErrCorruptPage, len(out), total)
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
	return t.overflowPages(ref, func(id PageID) error { return t.store.Retire(id) })
}

// overflowPages visits every page of one overflow chain, reading each
// page's successor before visit sees it (visit may retire the page).
func (t *BTree) overflowPages(ref []byte, visit func(PageID) error) error {
	id := PageID(binary.LittleEndian.Uint64(ref))
	for id != 0 {
		img, err := t.store.ReadPage(id)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint64(img[1:]))
		if err := visit(id); err != nil {
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
		for i := 0; i < n.nkeys(); i++ {
			if n.kind == pageLeaf && n.overflow(i) {
				if err := t.freeOverflow(n.val(i)); err != nil {
					return err
				}
			}
		}
		if n.kind == pageInternal {
			for i := 0; i <= n.nkeys(); i++ {
				if err := walk(n.child(i)); err != nil {
					return err
				}
			}
		}
		return t.store.Retire(id)
	}
	return walk(t.root)
}

// Cursor iterates leaf entries in ascending key order by keeping the
// descent path (the root-to-leaf nodes) on a stack. Nodes are immutable
// views of immutable page images, so a cursor is immune to concurrent pool
// eviction and — when iterating a snapshot-pinned root — to concurrent
// writers. A Cursor is for use by one goroutine, but any number of cursors
// may iterate one tree concurrently. Close releases nothing under COW but
// is kept for API symmetry.
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
		if n, err = c.tree.readNodeShared(n.child(idx), c.c); err != nil {
			return err
		}
	}
	c.leaf = n
	return nil
}

// covers reports whether key routes to the current leaf: at or above the
// nearest separator on the leaf's left along the descent path, below the
// nearest on its right.
func (c *Cursor) covers(key []byte) bool {
	if c.leaf == nil {
		return false
	}
	lo, hi := false, false
	for i := len(c.stack) - 1; i >= 0 && !(lo && hi); i-- {
		f := c.stack[i]
		if !lo && f.idx > 0 {
			if bytes.Compare(key, f.n.key(f.idx-1)) < 0 {
				return false
			}
			lo = true
		}
		if !hi && f.idx < f.n.nkeys() {
			if bytes.Compare(key, f.n.key(f.idx)) >= 0 {
				return false
			}
			hi = true
		}
	}
	return true
}

// locate moves the cursor to the first cell at or after key within the leaf
// key routes to, reporting whether that cell holds key itself. It descends
// from the root only when key routes outside the current leaf; the position
// may be one past the leaf's last cell (skipEmpty moves on from there).
func (c *Cursor) locate(key []byte) (bool, error) {
	if !c.covers(key) {
		c.stack = c.stack[:0]
		if err := c.descend(c.tree.root, key); err != nil {
			return false, err
		}
	}
	var found bool
	c.pos, found = leafIndex(c.leaf, key)
	return found, nil
}

// First positions a cursor at the smallest key.
func (t *BTree) First() (*Cursor, error) { return t.firstC(nil) }

// firstC is First with per-request counter attribution (c may be nil).
func (t *BTree) firstC(ctr *obs.Counters) (*Cursor, error) {
	c := &Cursor{tree: t, c: ctr}
	if err := c.descend(t.root, nil); err != nil {
		return nil, err
	}
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
	if _, err := c.locate(key); err != nil {
		return nil, err
	}
	if err := c.skipEmpty(); err != nil {
		return nil, err
	}
	return c, nil
}

// Valid reports whether the cursor references an entry.
func (c *Cursor) Valid() bool { return c.leaf != nil && c.pos < c.leaf.nkeys() }

// Key returns the current key. Valid must be true.
func (c *Cursor) Key() []byte { return c.leaf.key(c.pos) }

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
	for c.leaf != nil && c.pos >= c.leaf.nkeys() {
		advanced := false
		for len(c.stack) > 0 {
			f := &c.stack[len(c.stack)-1]
			if f.idx < f.n.nkeys() {
				f.idx++
				if err := c.descend(f.n.child(f.idx), nil); err != nil {
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
		for i := 0; i < n.nkeys(); i++ {
			k := n.key(i)
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("storage: check: page %d key %d below range", id, i)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("storage: check: page %d key %d above range", id, i)
			}
			if i > 0 && bytes.Compare(n.key(i-1), k) >= 0 {
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
		for i := 0; i <= n.nkeys(); i++ {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.key(i - 1)
			}
			if i < n.nkeys() {
				chi = n.key(i)
			}
			if err := walk(n.child(i), clo, chi, d+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, nil, nil, 0)
}
