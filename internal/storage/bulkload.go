package storage

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrNotEmpty is returned by BulkLoad on a tree that already has entries.
var ErrNotEmpty = errors.New("storage: bulk load into non-empty tree")

// ErrUnsorted is returned by BulkLoad when keys are not strictly ascending.
var ErrUnsorted = errors.New("storage: bulk load keys not strictly ascending")

// KV is one key/value pair for BulkLoad.
type KV struct {
	Key   []byte
	Value []byte
}

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

// BulkLoad builds the tree bottom-up from pairs, whose keys must be
// strictly ascending. It replaces the per-key descent of repeated Put calls
// with sequential leaf construction — O(n) page writes with no splits — and
// is the fast path behind relstore's Table.BulkInsert. The tree must be
// empty; values longer than MaxInlineValue spill to overflow chains exactly
// as with Put. Like all mutations, BulkLoad requires exclusive access.
func (t *BTree) BulkLoad(pairs []KV) error {
	empty, err := t.Empty()
	if err != nil {
		return err
	}
	if !empty {
		return ErrNotEmpty
	}
	if len(pairs) == 0 {
		return nil
	}
	for i, p := range pairs {
		if len(p.Key) == 0 || len(p.Key) > MaxKeySize {
			return fmt.Errorf("%w: pair %d has %d bytes (max %d, min 1)", ErrKeyTooLarge, i, len(p.Key), MaxKeySize)
		}
		if i > 0 && bytes.Compare(pairs[i-1].Key, p.Key) >= 0 {
			return fmt.Errorf("%w: pair %d", ErrUnsorted, i)
		}
	}

	// Leaf level: fill pages left to right. The existing (empty) root page
	// is reused as the leftmost leaf when the writer still owns it (created
	// this transaction); a committed empty root is retired and replaced,
	// honoring copy-on-write so snapshot readers keep a stable empty tree.
	first := t.root
	if !t.store.Writable(first) {
		id, err := t.store.Allocate()
		if err != nil {
			return err
		}
		if err := t.store.Retire(t.root); err != nil {
			return err
		}
		first = id
	}
	cur := &cells{kind: pageLeaf, page: first}
	curSize := leafHeaderSize
	level := []levelEntry{{key: pairs[0].Key, page: cur.page}}
	for _, p := range pairs {
		stored, isOverflow := p.Value, false
		if len(p.Value) > MaxInlineValue {
			ref, err := t.writeOverflow(p.Value)
			if err != nil {
				return err
			}
			stored, isOverflow = ref, true
		}
		entry := 4 + len(p.Key) + len(stored)
		if len(cur.keys) > 0 && curSize+entry > bulkLeafFill {
			nid, err := t.store.Allocate()
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
			level = append(level, levelEntry{key: p.Key, page: nid})
		}
		cur.keys = append(cur.keys, p.Key)
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
			id, err := t.store.Allocate()
			if err != nil {
				return err
			}
			n := &cells{kind: pageInternal, page: id, children: []PageID{level[i].page}}
			first := level[i].key
			size := internalHeaderSize
			i++
			for i < len(level) && size+2+len(level[i].key)+8 <= bulkInternalFill {
				n.keys = append(n.keys, level[i].key)
				n.children = append(n.children, level[i].page)
				size += 2 + len(level[i].key) + 8
				i++
			}
			if err := t.writeNode(n); err != nil {
				return err
			}
			next = append(next, levelEntry{key: first, page: id})
		}
		level = next
	}
	t.root = level[0].page
	t.size.Store(int64(len(pairs)))
	return nil
}
