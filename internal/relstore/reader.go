package relstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Reader is a request-scoped reader of one table's rows by primary key. It
// holds the page, not its numbers: every primary leaf it descends to is kept
// as it is (storage.Leaf — the pool's own immutable image and a cell-offset
// table), ordered by key range, and a later key that a held leaf covers is
// answered there. On an integer key the held leaf is picked by comparing
// numbers, and the row is tried at the key's distance from the leaf's first
// key with one compare: a table of dense ids (the nodes, layer and subs
// relations) is answered that way almost always, and a key the try misses —
// a gap, a sparse or non-integer key — falls back to a binary search of the
// leaf. So within a request no leaf is descended to twice, and of a held leaf
// only the rows asked for are looked at, one at a time, only the columns
// asked for.
//
// The leaves kept are bounded by a budget the owner hands in
// (TableView.Reader) and may share among the readers of one request; once it
// is spent a reader keeps answering — held leaves still serve, other keys
// descend — and stops retaining. Held images are the pinned epoch's bytes and
// never change; a follower snapshot invalidated by a replicated apply fails at
// the reader's next page read, not on what it holds. A Reader is for one
// goroutine and dies with its request: it keeps up to the budget of 4 KiB
// images alive, which nothing longer-lived may do. It must not be copied once
// used.
type Reader struct {
	v      *TableView
	budget *int       // leaves the request may still retain; shared, counted down
	ints   bool       // the key column is TInt: every key is 9 bytes, its number in the last 8
	leaves []heldLeaf // non-empty leaves, ascending by first key
	key    []byte     // scratch: the encoded key of the lookup in progress
}

// heldLeaf is a leaf a Reader holds and, on an integer key, the numbers of
// its first and last keys.
type heldLeaf struct {
	storage.Leaf
	first, last uint64
}

// Reader returns a reader over the view's rows. It retains a leaf while
// *budget is positive and counts it down for each one; readers given the same
// budget share it, which bounds what one request holds over all its tables.
func (v *TableView) Reader(budget *int) Reader {
	return Reader{v: v, budget: budget, ints: v.schema.Columns[v.keyCol].Type == TInt}
}

// keyNum is the number of an encoded integer key: its 8 bytes after the tag,
// big-endian. The encoding flips the sign bit, so numbers order as the keys'
// bytes do. A key of another length is 0; only a corrupt page holds one,
// and the search by bytes still answers it.
func keyNum(key []byte) uint64 {
	if len(key) != 9 {
		return 0
	}
	return binary.BigEndian.Uint64(key[1:])
}

// fail reports a read failure — as the cancellation once the context is
// done: a cancelled reader whose snapshot pins were released may land on
// reclaimed pages, and that must not masquerade as corruption.
func fail(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// get returns the stored bytes of the row under the encoded primary key. A
// held leaf answers when the key lies between its first and last keys (a key
// between two adjacent entries is in no leaf); otherwise one descent fetches
// the leaf, which is then held too.
func (r *Reader) get(ctx context.Context, key []byte) ([]byte, bool, error) {
	var (
		n       uint64 // key's number, on an integer key
		leaf    heldLeaf
		pos     int
		ok      bool // the entry at pos is key's
		covered bool // key lies within leaf's entries
	)
	if r.ints {
		n = keyNum(key)
	}
	if i := r.upTo(key, n); i > 0 {
		leaf = r.leaves[i-1]
		pos, ok = r.find(leaf, key, n)
		covered = ok || pos < leaf.Len()
	}
	if !covered {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		l, err := r.v.primary.LeafC(key, obs.CountersFrom(ctx))
		if err != nil {
			return nil, false, fail(ctx, err)
		}
		leaf = r.hold(l)
		pos, ok = r.find(leaf, key, n)
	}
	if !ok {
		return nil, false, nil
	}
	enc, err := leaf.Val(pos)
	if err != nil {
		return nil, false, fail(ctx, err)
	}
	return enc, true, nil
}

// upTo returns how many held leaves begin at or before key (n its number, on
// an integer key): the leaf that may hold it is the last of those.
func (r *Reader) upTo(key []byte, n uint64) int {
	lo, hi := 0, len(r.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var before bool
		if r.ints {
			before = r.leaves[mid].first <= n
		} else {
			before = bytes.Compare(r.leaves[mid].Key(0), key) <= 0
		}
		if before {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find is storage.Leaf.Find, first answering a key past the leaf's last as
// past every entry, then trying the entry at the key's distance from the
// leaf's first key, where a run of dense integer keys puts it. The distance
// is unsigned: a key below the first wraps past every position.
func (r *Reader) find(leaf heldLeaf, key []byte, n uint64) (int, bool) {
	if r.ints {
		if n > leaf.last {
			return leaf.Len(), false
		}
		if d := n - leaf.first; d < uint64(leaf.Len()) && bytes.Equal(leaf.Key(int(d)), key) {
			return int(d), true
		}
	}
	return leaf.Find(key)
}

// hold keeps a leaf just descended to, while the budget lasts, and returns
// it as held. An absent key outside every held leaf's entries can land in a
// held leaf again: that one is not kept twice.
func (r *Reader) hold(l storage.Leaf) heldLeaf {
	leaf := heldLeaf{Leaf: l}
	if l.Len() == 0 {
		return leaf
	}
	first := l.Key(0)
	if r.ints {
		leaf.first, leaf.last = keyNum(first), keyNum(l.Key(l.Len()-1))
	}
	if *r.budget <= 0 {
		return leaf
	}
	at := r.upTo(first, leaf.first)
	if at > 0 && bytes.Equal(r.leaves[at-1].Key(0), first) {
		return leaf
	}
	r.leaves = slices.Insert(r.leaves, at, leaf)
	*r.budget--
	return leaf
}

// encoded returns the stored bytes of the row with the given primary key.
func (r *Reader) encoded(ctx context.Context, key Value) ([]byte, bool, error) {
	if keyType := r.v.schema.Columns[r.v.keyCol].Type; key.Type != keyType {
		return nil, false, fmt.Errorf("%w: key wants %s, got %s", errSchemaRow, keyType, key.Type)
	}
	r.key = appendTupleValue(r.key[:0], key)
	return r.get(ctx, r.key)
}

// Ints reads the integer columns at the ascending positions cols of the row
// with the given primary key into out, reporting whether there is such a
// row. The values are taken straight from the encoded row, the columns
// between them stepped over; no Value is built.
func (r *Reader) Ints(ctx context.Context, key Value, cols []int, out []int64) (bool, error) {
	for i, c := range cols {
		if c < 0 || c >= len(r.v.schema.Columns) || r.v.schema.Columns[c].Type != TInt || (i > 0 && c <= cols[i-1]) || i >= len(out) {
			return false, fmt.Errorf("%w: want ascending integer columns and room for them, got %v into %d", errSchemaRow, cols, len(out))
		}
	}
	enc, ok, err := r.encoded(ctx, key)
	if err != nil || !ok {
		return false, err
	}
	if err := rowInts(enc, cols, out); err != nil {
		return false, fail(ctx, err)
	}
	return true, nil
}

// Row returns the row with the given primary key where it lies in the leaf
// the reader holds (or has just descended to), reporting whether there is
// one.
func (r *Reader) Row(ctx context.Context, key Value) (Row, bool, error) {
	enc, ok, err := r.encoded(ctx, key)
	return Row{enc}, ok, err
}

// IndexGetBatchCtx looks up many values of an index's first column at once:
// rows[i] is the first row, in index order, whose indexed column equals
// vals[i], and found[i] whether there is one. The values are resolved in one
// sorted sweep of the index and the rows they point at are read through the
// reader, so the cost is one descent per distinct leaf touched in either —
// not two per value — and the primary leaves stay held for the reads that
// follow in the same request. The rows are handed out as they lie in those
// leaves.
func (r *Reader) IndexGetBatchCtx(ctx context.Context, index string, vals []Value) ([]Row, []bool, error) {
	v := r.v
	ix, tree, err := v.findIndex(index)
	if err != nil {
		return nil, nil, err
	}
	prefixes := make([][]byte, len(vals))
	for i, val := range vals {
		if prefixes[i], err = v.indexPrefix(ix, []Value{val}); err != nil {
			return nil, nil, err
		}
	}
	keys, pks, err := tree.SeekBatchC(ctx, prefixes, obs.CountersFrom(ctx))
	if err != nil {
		return nil, nil, fail(ctx, err)
	}
	found := make([]bool, len(vals))
	rows := make([]Row, len(vals))
	for i, key := range keys {
		if key == nil || !bytes.HasPrefix(key, prefixes[i]) {
			continue
		}
		enc, ok, err := r.get(ctx, pks[i])
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fail(ctx, fmt.Errorf("relstore: index %s.%s points at missing row", v.schema.Name, index))
		}
		rows[i], found[i] = Row{enc}, true
	}
	return rows, found, nil
}
