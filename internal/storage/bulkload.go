package storage

import (
	"bytes"
	"errors"
	"fmt"
)

// errNotEmpty is returned by BulkLoad on a tree that already has entries.
var errNotEmpty = errors.New("storage: bulk load into non-empty tree")

// errUnsorted is returned by BulkLoad when keys are not strictly ascending.
var errUnsorted = errors.New("storage: bulk load keys not strictly ascending")

// Leaves are packed to ~94% and internal nodes to ~90% of a page during
// bulk load, leaving headroom so trickle inserts after a load do not split
// every page immediately.
const (
	bulkLeafFill     = PageSize - PageSize/16
	bulkInternalFill = PageSize - PageSize/10
)

// levelEntry describes one finished node of the level being built: the
// smallest key reachable under it and its page id.
type levelEntry struct {
	key  []byte
	page PageID
}

// Empty reports whether the tree is structurally empty: a single key-less
// leaf root, the only state BulkLoad accepts. A tree whose entries were all
// deleted may still have internal pages (deletes are lazy) and is NOT
// structurally empty.
func (t *BTree) Empty() (bool, error) {
	root, err := t.readNode(t.root)
	if err != nil {
		return false, err
	}
	return root.kind == pageLeaf && root.nkeys() == 0, nil
}

// BulkLoad builds the tree bottom-up from n entries, entry i being at(i),
// whose keys must be strictly ascending. It replaces the per-key descent of
// repeated Put calls with sequential leaf construction — O(n) page writes
// with no splits — and is the fast path behind relstore's Table.ApplyBulk,
// which hands it views over its staging arenas. The bytes at returns are
// read in place and must stay unchanged until BulkLoad returns. The tree
// must be empty; values longer than maxInlineValue spill to overflow chains
// exactly as with Put. Like all mutations, BulkLoad requires exclusive
// access.
//
// Key order and size are checked in the same pass that packs the leaves. A
// bad key fails the load with the tree unchanged, but the pages written for
// the entries before it stay allocated in the open transaction: a caller
// that cannot vouch for its keys checks them first.
func (t *BTree) BulkLoad(n int, at func(i int) (key, val []byte)) error {
	empty, err := t.Empty()
	if err != nil {
		return err
	}
	if !empty {
		return errNotEmpty
	}
	if n == 0 {
		return nil
	}

	// Leaf level: fill pages left to right. The existing (empty) root page
	// is reused as the leftmost leaf when the writer still owns it (created
	// this transaction); a committed empty root is replaced and retired once
	// the load has succeeded, honoring copy-on-write so snapshot readers keep
	// a stable empty tree.
	first := t.root
	if !t.store.writable(first) {
		if first, err = t.store.allocate(); err != nil {
			return err
		}
	}
	cur := &cells{kind: pageLeaf, page: first}
	curSize := leafHeaderSize
	var level []levelEntry
	var prev []byte
	for i := 0; i < n; i++ {
		key, val := at(i)
		if len(key) == 0 || len(key) > MaxKeySize {
			return fmt.Errorf("%w: pair %d has %d bytes (max %d, min 1)", ErrKeyTooLarge, i, len(key), MaxKeySize)
		}
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("%w: pair %d", errUnsorted, i)
		}
		prev = key
		stored, isOverflow := val, false
		if len(val) > maxInlineValue {
			ref, err := t.writeOverflow(val)
			if err != nil {
				return err
			}
			stored, isOverflow = ref, true
		}
		entry := 4 + len(key) + len(stored)
		if len(cur.keys) > 0 && curSize+entry > bulkLeafFill {
			nid, err := t.store.allocate()
			if err != nil {
				return err
			}
			if err := t.writeNode(cur); err != nil {
				return err
			}
			// The page just written holds copies: the next leaf's cells
			// reuse the slices instead of growing new ones from nothing.
			cur = &cells{kind: pageLeaf, page: nid, keys: cur.keys[:0], vals: cur.vals[:0], overflow: cur.overflow[:0]}
			curSize = leafHeaderSize
		}
		if len(cur.keys) == 0 {
			level = append(level, levelEntry{key: key, page: cur.page})
		}
		cur.keys = append(cur.keys, key)
		cur.vals = append(cur.vals, stored)
		cur.overflow = append(cur.overflow, isOverflow)
		curSize += entry
	}
	if err := t.writeNode(cur); err != nil {
		return err
	}

	// Internal levels: pack (separator, child) runs into nodes until one
	// node spans the whole level. The first entry's key of each node is not
	// stored in the node itself; it becomes the separator one level up.
	for len(level) > 1 {
		var next []levelEntry
		i := 0
		for i < len(level) {
			id, err := t.store.allocate()
			if err != nil {
				return err
			}
			node := &cells{kind: pageInternal, page: id, children: []PageID{level[i].page}}
			first := level[i].key
			size := internalHeaderSize
			i++
			for i < len(level) && size+2+len(level[i].key)+8 <= bulkInternalFill {
				node.keys = append(node.keys, level[i].key)
				node.children = append(node.children, level[i].page)
				size += 2 + len(level[i].key) + 8
				i++
			}
			if err := t.writeNode(node); err != nil {
				return err
			}
			next = append(next, levelEntry{key: first, page: id})
		}
		level = next
	}
	if first != t.root {
		if err := t.store.retire(t.root); err != nil {
			return err
		}
	}
	t.root = level[0].page
	return nil
}
