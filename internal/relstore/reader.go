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

// Reader is a request-scoped reader of one integer-keyed table's rows by
// number. It holds the page, not its numbers: every primary leaf it descends
// to is kept as it is (storage.Leaf — the pool's own immutable image and a
// cell-offset table) with the numbers of its first and last keys, ordered by
// them, and a later id that a held leaf covers is answered there without
// encoding the key. The two leaves the last answers came from are tried
// first — a walk's lockstep climb alternates between two — then the held
// leaves are searched by number. In the leaf the row is tried at the id's
// distance from the first key with one compare: a table of dense ids (the
// nodes, layer and subs relations) is answered that way almost always, and
// an id the try misses — a gap, a sparse key — falls back to a search of the
// leaf by number. So within a request no leaf is descended to twice, and of
// a held leaf only the rows asked for are looked at, one at a time, only the
// columns asked for.
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
	budget *int        // leaves the request may still retain; shared, counted down
	cols   []int       // the integer columns Ints reads
	bad    error       // why nothing can be read: the key is not an integer, or cols not integer columns
	leaves []heldLeaf  // non-empty leaves, ascending by first key
	near   [2]int      // the held leaves the last two answers came from, latest first; -1 for none
	room   [2]heldLeaf // where the first leaves held are kept: most readers of a request hold one or two
}

// heldLeaf is a leaf a Reader holds, the numbers of its first and last keys
// (keyNum), and whether its keys are every number between those.
type heldLeaf struct {
	storage.Leaf
	first, last uint64
	dense       bool
}

// covers reports whether number n lies within the leaf's keys: if a row has
// that key, this leaf holds it.
func (l heldLeaf) covers(n uint64) bool { return n >= l.first && n <= l.last }

// find returns the position of the entry with number n, which the leaf
// covers, and whether there is one. Keys are distinct integers, so n's entry
// lies no further in than n's distance from the first key: in a dense leaf
// it is there, in another it is tried there and searched for below that.
func (l heldLeaf) find(n uint64) (int, bool) {
	d := n - l.first
	if l.dense || d < uint64(l.Len()) && keyNum(l.Key(int(d))) == n {
		return int(d), true
	}
	lo, hi := 0, int(min(d, uint64(l.Len())))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyNum(l.Key(mid)) < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < l.Len() && keyNum(l.Key(lo)) == n
}

// Reader returns a reader over the rows of an integer-keyed view; Ints
// reads the integer columns at the ascending positions cols. The key and the
// columns are checked here, once: a reader of a view keyed otherwise, or
// given columns Ints cannot read, fails every read with errSchemaRow. It
// retains a leaf while *budget is positive and counts it down for each one;
// readers given the same budget share it, which bounds what one request
// holds over all its tables.
func (v *TableView) Reader(budget *int, cols ...int) Reader {
	r := Reader{v: v, budget: budget, cols: cols, near: [2]int{-1, -1}}
	if keyType := v.schema.Columns[v.keyCol].Type; keyType != TInt {
		r.bad = fmt.Errorf("%w: a reader wants an integer key, %s's is %s", errSchemaRow, v.schema.Name, keyType)
	}
	for i, c := range cols {
		if c < 0 || c >= len(v.schema.Columns) || v.schema.Columns[c].Type != TInt || (i > 0 && c <= cols[i-1]) {
			r.bad = fmt.Errorf("%w: want ascending integer columns of %s, got %v", errSchemaRow, v.schema.Name, cols)
		}
	}
	return r
}

// keyNum is the number of an encoded integer key: its 8 bytes after the tag,
// big-endian. The encoding flips the sign bit, so numbers order as the keys'
// bytes do. A key of another length is 0; only a corrupt page holds one.
func keyNum(key []byte) uint64 {
	if len(key) != 9 {
		return 0
	}
	return binary.BigEndian.Uint64(key[1:])
}

// idNum is the number of the key of id (keyNum of its encoding), numID the
// id of a number.
func idNum(id int64) uint64 { return uint64(id) ^ 1<<63 }
func numID(n uint64) int64  { return int64(n ^ 1<<63) }

// fail reports a read failure — as the cancellation once the context is
// done: a cancelled reader whose snapshot pins were released may land on
// reclaimed pages, and that must not masquerade as corruption.
func fail(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// get returns the stored bytes of the row whose key has number n. A held
// leaf answers when it covers n (a key between two adjacent leaves' entries
// is in neither); otherwise one descent fetches the leaf, which is then held
// too.
func (r *Reader) get(ctx context.Context, n uint64) ([]byte, bool, error) {
	var l heldLeaf
	if i := r.held(n); i >= 0 {
		l = r.leaves[i]
	} else {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		key := [9]byte{tagInt}
		binary.BigEndian.PutUint64(key[1:], n)
		leaf, err := r.v.primary.LeafC(key[:], obs.CountersFrom(ctx))
		if err != nil {
			return nil, false, fail(ctx, err)
		}
		if l = r.hold(leaf); !l.covers(n) {
			return nil, false, nil
		}
	}
	pos, ok := l.find(n)
	if !ok {
		return nil, false, nil
	}
	enc, err := l.Val(pos)
	if err != nil {
		return nil, false, fail(ctx, err)
	}
	return enc, true, nil
}

// held returns the index of the held leaf that covers n, -1 if none does:
// one of the two last answered from, else the one a search by first key
// finds.
func (r *Reader) held(n uint64) int {
	for _, i := range r.near {
		if i >= 0 && r.leaves[i].covers(n) {
			r.answered(i)
			return i
		}
	}
	i := r.upTo(n) - 1
	if i < 0 || n > r.leaves[i].last {
		return -1
	}
	r.answered(i)
	return i
}

// answered makes held leaf i the latest answered from.
func (r *Reader) answered(i int) {
	if r.near[0] != i {
		r.near[0], r.near[1] = i, r.near[0]
	}
}

// upTo returns how many held leaves begin at or before number n: the leaf
// that may hold it is the last of those.
func (r *Reader) upTo(n uint64) int {
	lo, hi := 0, len(r.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.leaves[mid].first <= n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hold keeps a leaf just descended to, while the budget lasts, and returns
// it as held. An absent key outside every held leaf's entries can land in a
// held leaf again: that one is not kept twice. An empty leaf covers no
// number.
func (r *Reader) hold(l storage.Leaf) heldLeaf {
	leaf := heldLeaf{Leaf: l, first: 1}
	if l.Len() == 0 {
		return leaf
	}
	leaf.first, leaf.last = keyNum(l.Key(0)), keyNum(l.Key(l.Len()-1))
	leaf.dense = leaf.last-leaf.first == uint64(l.Len()-1) && leaf.first <= leaf.last
	if *r.budget <= 0 {
		return leaf
	}
	at := r.upTo(leaf.first)
	if at > 0 && r.leaves[at-1].first == leaf.first {
		r.answered(at - 1)
		return leaf
	}
	if r.leaves == nil {
		r.leaves = r.room[:0]
	}
	r.leaves = slices.Insert(r.leaves, at, leaf)
	for j, i := range r.near {
		if i >= at {
			r.near[j]++
		}
	}
	r.answered(at)
	*r.budget--
	return leaf
}

// Ints reads the reader's integer columns of the row with key id into out,
// reporting whether there is such a row. The values are taken straight from
// the encoded row, the columns between them stepped over; no Value is built
// and, on a held leaf, no key encoded.
func (r *Reader) Ints(ctx context.Context, id int64, out []int64) (bool, error) {
	if r.bad != nil {
		return false, r.bad
	}
	if len(out) < len(r.cols) {
		return false, fmt.Errorf("%w: %d columns into %d", errSchemaRow, len(r.cols), len(out))
	}
	enc, ok, err := r.get(ctx, idNum(id))
	if err != nil || !ok {
		return false, err
	}
	if err := rowInts(enc, r.cols, out); err != nil {
		return false, fail(ctx, err)
	}
	return true, nil
}

// Row returns the row with key id where it lies in the leaf the reader
// holds (or has just descended to), reporting whether there is one.
func (r *Reader) Row(ctx context.Context, id int64) (Row, bool, error) {
	if r.bad != nil {
		return Row{}, false, r.bad
	}
	enc, ok, err := r.get(ctx, idNum(id))
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
	if r.bad != nil {
		return nil, nil, r.bad
	}
	ix, tree, err := v.findIndex(index)
	if err != nil {
		return nil, nil, err
	}
	// The prefixes are encoded end to end into one buffer.
	size := 0
	for _, val := range vals {
		size += 9 + len(val.s) + len(val.b) // a fixed-width value, or a string's or bytes' tag, bytes and terminator
	}
	buf := make([]byte, 0, size)
	prefixes := make([][]byte, len(vals))
	for i, val := range vals {
		if err := v.checkIndexValue(ix, 0, val); err != nil {
			return nil, nil, err
		}
		at := len(buf)
		buf = appendTupleValue(buf, val)
		prefixes[i] = buf[at:len(buf):len(buf)]
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
		if rows[i], err = r.pointedAt(ctx, index, pks[i]); err != nil {
			return nil, nil, err
		}
		found[i] = true
	}
	return rows, found, nil
}

// IndexGetCtx is IndexGetBatchCtx for one value: the first row, in index
// order, whose indexed first column equals val, and whether there is one.
// The value is encoded on the stack and found by one seek of the index that
// keeps its descent path there too, and the row is read through the reader,
// so a lookup allocates nothing.
func (r *Reader) IndexGetCtx(ctx context.Context, index string, val Value) (Row, bool, error) {
	if r.bad != nil {
		return Row{}, false, r.bad
	}
	ix, tree, err := r.v.findIndex(index)
	if err != nil {
		return Row{}, false, err
	}
	if err := r.v.checkIndexValue(ix, 0, val); err != nil {
		return Row{}, false, err
	}
	if err := ctx.Err(); err != nil {
		return Row{}, false, err
	}
	var room [64]byte
	prefix := appendTupleValue(room[:0], val)
	key, pk, err := tree.SeekOneC(prefix, obs.CountersFrom(ctx))
	if err != nil {
		return Row{}, false, fail(ctx, err)
	}
	if key == nil || !bytes.HasPrefix(key, prefix) {
		return Row{}, false, nil
	}
	row, err := r.pointedAt(ctx, index, pk)
	return row, err == nil, err
}

// pointedAt reads, through the reader, the row an entry of the index points
// at by its primary key pk; an entry that points at no row is corruption.
func (r *Reader) pointedAt(ctx context.Context, index string, pk []byte) (Row, error) {
	if len(pk) != 9 || pk[0] != tagInt {
		return Row{}, fail(ctx, fmt.Errorf("%w: index %s.%s holds primary key %x", errCorruptRow, r.v.schema.Name, index, pk))
	}
	enc, ok, err := r.get(ctx, keyNum(pk))
	if err != nil {
		return Row{}, err
	}
	if !ok {
		return Row{}, fail(ctx, fmt.Errorf("relstore: index %s.%s points at missing row", r.v.schema.Name, index))
	}
	return Row{enc}, nil
}
