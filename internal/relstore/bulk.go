package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// This file is the bulk path in two halves. StageBulk is lock-free and
// touches no database: it needs only the schema, encodes the rows, orders
// the primary run and one run per secondary index and finishes every check
// that can reject the batch. Table.ApplyBulk then runs under the database
// mutex and only hands the finished runs to BTree.BulkLoad, which reads
// them in place.
// Table.BulkInsert is the two back to back.

// bulkLayout is what staging needs of a schema, resolved once per batch
// instead of by column name per row.
type bulkLayout struct {
	schema Schema
	keyCol int
	ixCols [][]int // per schema index: the positions of its columns
	keyed  []bool  // per column: part of the primary key or of an index
}

func newBulkLayout(schema Schema) (*bulkLayout, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	lay := &bulkLayout{
		schema: schema,
		ixCols: make([][]int, len(schema.Indexes)),
		keyed:  make([]bool, len(schema.Columns)),
	}
	lay.keyCol, _ = schema.colIndex(schema.Key)
	lay.keyed[lay.keyCol] = true
	for j, ix := range schema.Indexes {
		for _, c := range ix.Columns {
			ci, _ := schema.colIndex(c)
			lay.ixCols[j] = append(lay.ixCols[j], ci)
			lay.keyed[ci] = true
		}
	}
	return lay, nil
}

// arena is a sequence of byte strings laid end to end in one buffer: entry i
// is buf[end[i]:end[i+1]], and end starts at 0. Neither slice holds a
// pointer, so a staged batch costs the collector nothing to scan.
type arena struct {
	buf []byte
	end []uint32
}

// newArena returns an arena with room for n entries' ends.
func newArena(n int) arena { return arena{end: append(make([]uint32, 0, n+1), 0)} }

func (a *arena) at(i int) []byte { return a.buf[a.end[i]:a.end[i+1]:a.end[i+1]] }

// close ends the entry being appended to buf.
func (a *arena) close() { a.end = append(a.end, uint32(len(a.buf))) }

// estimateAfter is how many entries an arena takes in before it is sized
// from them: a tree's first row is its root, whose empty name makes one row
// a poor estimate of the rest.
const estimateAfter = 32

// reserve keeps room for left more entries. Once estimateAfter entries are
// in and buf is nearly full, it grows buf once for all of them at the
// average size so far plus a quarter, instead of letting append regrow it.
// The margin is for rows that grow along the batch: a tree's ids, parents
// and subtree sizes are varints, a byte or two longer at its end than at
// its root.
func (a *arena) reserve(left int) {
	n := len(a.end) - 1
	if n < estimateAfter || left == 0 {
		return
	}
	avg := (len(a.buf) + n - 1) / n
	if cap(a.buf)-len(a.buf) < 2*avg {
		a.buf = slices.Grow(a.buf, left*(avg+avg/4))
	}
}

// RowWriter receives the rows of one contiguous range of a batch, a value
// at a time in column order, and encodes each straight into the stage's
// arenas: the stored row, the primary key and every index key. No Tuple is
// built. The first value of the wrong type, or a row with the wrong number
// of values, fails the whole batch with errSchemaRow.
type RowWriter struct {
	lay   *bulkLayout
	first int        // the batch row the range starts at
	rows  arena      // encoded rows, in input order
	pks   arena      // primary keys
	keys  []arena    // per schema index: (indexed columns..., primary key)
	plen  [][]uint32 // per unique index: length of each key's indexed-columns part

	col          int    // values written to the current row so far
	tup          []byte // tuple encodings of the current row's keyed columns
	tupLo, tupHi []int  // per keyed column: its extent in tup
	err          error
}

func newRowWriter(lay *bulkLayout, first, n int) *RowWriter {
	w := &RowWriter{
		lay:   lay,
		first: first,
		keys:  make([]arena, len(lay.ixCols)),
		plen:  make([][]uint32, len(lay.ixCols)),
		tupLo: make([]int, len(lay.keyed)),
		tupHi: make([]int, len(lay.keyed)),
	}
	w.rows, w.pks = newArena(n), newArena(n)
	for j := range w.keys {
		w.keys[j] = newArena(n)
		if lay.schema.Indexes[j].Unique {
			w.plen[j] = make([]uint32, 0, n)
		}
	}
	return w
}

// The typed writers below encode a value straight into the row arena and,
// for a keyed column, into tup, with no Value built. The row bytes go on by
// x = append(x, ...), which stores only the slice's length unless the arena
// grows.

// Int writes the next value of the row, an integer column's.
func (w *RowWriter) Int(v int64) {
	if w.open(TInt) {
		b, n := rowInt(v)
		w.rows.buf = append(w.rows.buf, b[:n]...)
		if w.lay.keyed[w.col] {
			k := tupleInt(v)
			w.tup = append(w.tup, k[:]...)
		}
		w.next()
	}
}

// Float writes the next value of the row, a float column's.
func (w *RowWriter) Float(v float64) {
	if w.open(TFloat) {
		b, n := rowFloat(v)
		w.rows.buf = append(w.rows.buf, b[:n]...)
		if w.lay.keyed[w.col] {
			k := tupleFloat(v)
			w.tup = append(w.tup, k[:]...)
		}
		w.next()
	}
}

// Str writes the next value of the row, a string column's: length-prefixed
// in the row, and for a keyed column the tagged, escaped tuple encoding.
func (w *RowWriter) Str(v string) {
	if w.open(TString) {
		b, n := rowVarHead(TString, len(v))
		w.rows.buf = append(w.rows.buf, b[:n]...)
		w.rows.buf = append(w.rows.buf, v...)
		if w.lay.keyed[w.col] {
			w.tup = appendEscaped(append(w.tup, tagString), v)
		}
		w.next()
	}
}

// Bool writes the next value of the row, a boolean column's.
func (w *RowWriter) Bool(v bool) {
	if w.open(TBool) {
		var b byte
		if v {
			b = 1
		}
		w.rows.buf = append(w.rows.buf, byte(TBool), b)
		if w.lay.keyed[w.col] {
			w.tup = append(w.tup, tupleBool(v))
		}
		w.next()
	}
}

// put writes the next value of the row from a Value: BulkInsert's generic
// tuples.
func (w *RowWriter) put(v Value) {
	if w.open(v.Type) {
		w.rows.buf = appendRowValue(w.rows.buf, v)
		if w.lay.keyed[w.col] {
			w.tup = appendTupleValue(w.tup, v)
		}
		w.next()
	}
}

// open starts the row's next value, of type typ, and reports whether to
// encode it: not after an error, not past the row's last column (endRow
// reports the count), and not into a column of another type, which fails
// the batch.
func (w *RowWriter) open(typ columnType) bool {
	cols := w.lay.schema.Columns
	if w.err != nil || w.col >= len(cols) {
		w.col++
		return false
	}
	if c := cols[w.col]; typ != c.Type {
		w.err = fmt.Errorf("%w: column %s wants %s, got %s", errSchemaRow, c.Name, c.Type, typ)
		return false
	}
	if w.col == 0 {
		w.rows.buf = binary.AppendUvarint(w.rows.buf, uint64(len(cols)))
	}
	w.tupLo[w.col] = len(w.tup)
	return true
}

// next ends the value open started: a keyed column's tuple encoding is
// what tup gained since.
func (w *RowWriter) next() {
	w.tupHi[w.col] = len(w.tup)
	w.col++
}

// endRow closes the row: its keys are assembled from the tuple encodings
// the keyed columns left in tup.
func (w *RowWriter) endRow() {
	if w.err != nil {
		return
	}
	lay := w.lay
	if n := len(lay.schema.Columns); w.col != n {
		w.err = fmt.Errorf("%w: %d values for %d columns", errSchemaRow, w.col, n)
		return
	}
	row := w.first + len(w.rows.end) - 1
	w.rows.close()
	pk := w.tup[w.tupLo[lay.keyCol]:w.tupHi[lay.keyCol]]
	w.pks.buf = append(w.pks.buf, pk...)
	w.pks.close()
	longest, fullest := len(pk), max(len(w.rows.buf), len(w.pks.buf))
	for j, cols := range lay.ixCols {
		a := &w.keys[j]
		start := len(a.buf)
		for _, c := range cols {
			a.buf = append(a.buf, w.tup[w.tupLo[c]:w.tupHi[c]]...)
		}
		if w.plen[j] != nil {
			w.plen[j] = append(w.plen[j], uint32(len(a.buf)-start))
		}
		a.buf = append(a.buf, pk...)
		a.close()
		longest, fullest = max(longest, len(a.buf)-start), max(fullest, len(a.buf))
	}
	if longest > storage.MaxKeySize {
		w.err = fmt.Errorf("%w: row %d of %s encodes a %d-byte key (max %d)",
			storage.ErrKeyTooLarge, row, lay.schema.Name, longest, storage.MaxKeySize)
		return
	}
	if fullest > math.MaxUint32 { // arena ends are uint32
		w.err = fmt.Errorf("relstore: rows %d.. of %s encode to over 4 GiB; stage them with more workers", w.first, lay.schema.Name)
		return
	}
	left := cap(w.rows.end) - len(w.rows.end)
	w.rows.reserve(left)
	w.pks.reserve(left)
	for j := range w.keys {
		w.keys[j].reserve(left)
	}
	w.tup = w.tup[:0]
	w.col = 0
}

// BulkStage is a batch of rows for one schema, staged: encoded, ordered into
// the runs BTree.BulkLoad takes and checked — row shapes, duplicate primary
// keys, unique indexes, key sizes. Whatever can reject the batch already
// has; what is left for Table.ApplyBulk is writing pages.
//
// The rows stay where the workers encoded them, one RowWriter per chunk of
// per rows; a run addresses them across chunk boundaries by batch row.
type BulkStage struct {
	lay    *bulkLayout
	n      int
	per    int          // rows per chunk; the last may hold fewer
	chunks []*RowWriter // the batch, in input order
	prim   run          // the primary tree's entries: (primary key, row)
	index  []run        // per schema index: (index key, primary key)
}

// Schema returns the schema the batch was staged for.
func (st *BulkStage) Schema() Schema { return st.lay.schema }

// Len returns the number of staged rows.
func (st *BulkStage) Len() int { return st.n }

// chunk locates batch row i: the chunk that encoded it and its place there.
func (st *BulkStage) chunk(i int) (c, j int) {
	if len(st.chunks) == 1 {
		return 0, i
	}
	c = int(uint32(i) / uint32(st.per)) // a batch's rows fit a uint32: runs order them by one
	return c, i - c*st.per
}

// minStageChunk keeps small batches on the calling goroutine: below it a
// goroutine costs more than the rows it would encode.
const minStageChunk = 512

// StageBulk stages n rows of schema. fill(i, w) writes row i's values to w
// in column order; it runs once per row, concurrently for distinct rows on
// up to workers goroutines (workers <= 0 means GOMAXPROCS), as do the checks
// and sorts of the primary run and the index runs. The stage is the same at
// every worker count. Nothing here takes a lock or reads a database, so a
// writer stages outside its critical section and holds the lock for
// ApplyBulk alone.
//
// The batch is all-or-nothing: a malformed row, a primary key or a unique
// index value that occurs twice in the batch, or a key over
// storage.MaxKeySize rejects it here, before any table is touched. Errors
// surface in the order of a serial pass: rows first, then the primary key,
// then the indexes in schema order.
func StageBulk(schema Schema, n, workers int, fill func(i int, w *RowWriter)) (*BulkStage, error) {
	lay, err := newBulkLayout(schema)
	if err != nil {
		return nil, err
	}
	st := &BulkStage{lay: lay, n: n}
	if n == 0 {
		return st, nil
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("relstore: a batch of %d rows is over the %d one stage holds", n, uint32(math.MaxUint32))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st.per = max((n+workers-1)/workers, minStageChunk)
	st.chunks = make([]*RowWriter, (n+st.per-1)/st.per)
	parallelDo(len(st.chunks), workers, func(c int) {
		lo, hi := c*st.per, min((c+1)*st.per, n)
		w := newRowWriter(lay, lo, hi-lo)
		for i := lo; i < hi && w.err == nil; i++ {
			fill(i, w)
			w.endRow()
		}
		st.chunks[c] = w
	})
	for _, w := range st.chunks {
		if w.err != nil {
			return nil, w.err
		}
	}

	// One run per tree. Index keys end in the primary key, so whole keys
	// never repeat; a unique index additionally rejects two rows sharing the
	// indexed-columns part, and those sort next to each other.
	st.prim = run{st: st, keys: make([]*arena, len(st.chunks)), vals: make([]*arena, len(st.chunks))}
	for c, w := range st.chunks {
		st.prim.keys[c], st.prim.vals[c] = &w.pks, &w.rows
	}
	st.index = make([]run, len(lay.ixCols))
	for j := range st.index {
		r := &st.index[j]
		*r = run{st: st, keys: make([]*arena, len(st.chunks)), vals: make([]*arena, len(st.chunks))}
		for c, w := range st.chunks {
			r.keys[c], r.vals[c] = &w.keys[j], &w.pks
			if w.plen[j] != nil {
				r.plen = append(r.plen, w.plen[j])
			}
		}
	}
	errs := make([]error, 1+len(lay.ixCols))
	parallelDo(len(errs), workers, func(r int) {
		if r == 0 {
			if dup := st.prim.arrange(); dup >= 0 {
				errs[0] = fmt.Errorf("%w: %s in %s", errDuplicateKey, keyString(st.prim.key(dup)), schema.Name)
			}
			return
		}
		if st.index[r-1].arrange() >= 0 {
			errs[r] = fmt.Errorf("%w: unique index %s.%s", errDuplicateKey, schema.Name, schema.Indexes[r-1].Name)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// keyString renders a single-column key for an error message.
func keyString(key []byte) string {
	if vals, err := decodeKey(key); err == nil && len(vals) == 1 {
		return vals[0].String()
	}
	return fmt.Sprintf("%x", key)
}

// run is one B+tree's entries as a view over the stage's arenas: the batch
// rows in key order, each row standing for its key and value in that tree.
// Nothing is copied out of the arenas.
type run struct {
	st         *BulkStage
	keys, vals []*arena   // per chunk: the arenas holding the entries' keys and values
	plen       [][]uint32 // per chunk, in a unique index's run: each key's indexed-columns part length
	order      []uint32   // the rows in key order; nil when input order is key order
}

// key returns batch row i's key in the run's tree.
func (r *run) key(i int) []byte {
	c, j := r.st.chunk(i)
	return r.keys[c].at(j)
}

// at returns the run's i-th entry in key order: BTree.BulkLoad's source.
func (r *run) at(i int) (key, val []byte) {
	if r.order != nil {
		i = int(r.order[i])
	}
	c, j := r.st.chunk(i)
	return r.keys[c].at(j), r.vals[c].at(j)
}

// part returns what of row i's key no other row may share: all of it, or a
// unique index key's indexed-columns part.
func (r *run) part(i int) []byte {
	c, j := r.st.chunk(i)
	k := r.keys[c].at(j)
	if r.plen != nil {
		k = k[:r.plen[c][j]]
	}
	return k
}

// arrange puts the run in key order and checks it, returning a row whose
// part equals its predecessor's in that order, or -1. Rows whose keys
// already ascend in input order — every primary run of a tree load, whose
// ids are preorder — are checked in that one pass and never sorted.
func (r *run) arrange() (dup int) {
	unique := r.plen != nil
	prev := r.key(0)
	for i := 1; i < r.st.n; i++ {
		k := r.key(i)
		if bytes.Compare(prev, k) >= 0 {
			return r.sort()
		}
		if unique && bytes.Equal(r.part(i-1), r.part(i)) {
			return i
		}
		prev = k
	}
	return -1
}

// sort fills r.order with the rows sorted by key and checks neighbours.
func (r *run) sort() (dup int) {
	n := r.st.n
	buf := make([]sortKey, 2*n)
	keys, scratch := buf[:n], buf[n:]
	for i := range keys {
		keys[i].row = uint32(i)
	}
	sortByKey(keys, scratch, r.key, 0)
	r.order = make([]uint32, n)
	for i, k := range keys {
		r.order[i] = k.row
	}
	for i := 1; i < n; i++ {
		if b := int(r.order[i]); bytes.Equal(r.part(int(r.order[i-1])), r.part(b)) {
			return b
		}
	}
	return -1
}

// sortKey stands for one entry while a run is sorted: eight bytes of its
// key, as a big-endian number, how many key bytes those eight hold, and the
// entry's row. It has no pointer, so moving one is a 16-byte copy under no
// write barrier, and ordering two never touches the keys.
type sortKey struct {
	head uint64
	row  uint32
	size uint32 // key bytes from the head's first on; 9 for any key that goes on past it
}

// sortByKey sorts keys by the rows' keys (key(row)), which all agree on
// their first off bytes. It sorts on the eight bytes after whatever prefix
// the keys share, then does the same inside every group those eight bytes
// could not tell apart — so keys with long common prefixes (a genus, a
// numbering scheme, the empty names of internal nodes) cost a pass per
// eight distinguishing bytes, not a byte-wise comparison per sort step.
// scratch is as long as keys.
func sortByKey(keys, scratch []sortKey, key func(row int) []byte, off int) {
	tail := func(row uint32) []byte {
		k := key(int(row))
		return k[min(off, len(k)):]
	}
	if len(keys) <= 8 {
		slices.SortFunc(keys, func(a, b sortKey) int { return bytes.Compare(tail(a.row), tail(b.row)) })
		return
	}
	first := tail(keys[0].row)
	shared := len(first)
	for _, k := range keys[1:] {
		t := tail(k.row)
		m := 0
		for m < shared && m < len(t) && t[m] == first[m] {
			m++
		}
		if shared = m; shared == 0 {
			break
		}
	}
	off += shared
	for i := range keys {
		var head [8]byte
		t := tail(keys[i].row)
		copy(head[:], t)
		keys[i].head = binary.BigEndian.Uint64(head[:])
		keys[i].size = uint32(min(len(t), 9))
	}
	if !inRadixOrder(keys) {
		radixSort(keys, scratch)
	}
	for lo := 0; lo < len(keys); {
		hi, more := lo+1, keys[lo].size > 8
		for hi < len(keys) && keys[hi].head == keys[lo].head {
			more = more || keys[hi].size > 8
			hi++
		}
		if hi-lo > 1 && more {
			sortByKey(keys[lo:hi], scratch[lo:hi], key, off+8)
		}
		lo = hi
	}
}

// inRadixOrder reports whether keys are already in radixSort's order, as a
// block of rows that arrives in key order is (the empty names of a tree's
// internal nodes, in preorder): the stable sort would leave it as it is.
func inRadixOrder(keys []sortKey) bool {
	for i := 1; i < len(keys); i++ {
		if a, b := keys[i-1], keys[i]; a.head > b.head || a.head == b.head && a.size > b.size {
			return false
		}
	}
	return true
}

// radixSort orders keys by head and then size, with a stable LSD radix sort
// through scratch: a counting pass on size — a key that ends inside the
// eight bytes sorts as if zero-padded, and before any longer key with those
// zeros — then one per byte of the head, last byte first. A digit on which
// every key agrees costs no pass.
func radixSort(keys, scratch []sortKey) {
	var counts [9][256]uint32 // per head byte, least significant first; then size
	for _, k := range keys {
		for b := 0; b < 8; b++ {
			counts[b][byte(k.head>>(8*b))]++
		}
		counts[8][k.size]++
	}
	n := uint32(len(keys))
	src, dst := keys, scratch
	for _, d := range [9]int{8, 0, 1, 2, 3, 4, 5, 6, 7} {
		c := &counts[d]
		if slices.Contains(c[:], n) {
			continue
		}
		var sum uint32
		for i, m := range c {
			c[i], sum = sum, sum+m
		}
		if d == 8 {
			for _, k := range src {
				dst[c[k.size]] = k
				c[k.size]++
			}
		} else {
			shift := 8 * d
			for _, k := range src {
				b := byte(k.head >> shift)
				dst[c[b]] = k
				c[b]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// parallelDo runs fn(0) … fn(tasks-1) on up to workers goroutines and
// returns when all have; with one worker or one task it runs them on the
// caller's.
func parallelDo(tasks, workers int, fn func(task int)) {
	workers = min(workers, tasks)
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			fn(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < tasks; t = int(next.Add(1)) - 1 {
				fn(t)
			}
		}()
	}
	wg.Wait()
}

// BulkInsert adds rows in one batch: StageBulk over the rows, then
// ApplyBulk. See those for the contract; in short, a batch that is malformed
// or conflicts with itself is rejected before the table is touched, and on
// an empty table the rows are loaded bottom-up instead of one descent each.
func (t *Table) BulkInsert(rows []Tuple) error {
	st, err := StageBulk(t.view.schema, len(rows), 0, func(i int, w *RowWriter) {
		for _, v := range rows[i] {
			w.put(v)
		}
	})
	if err != nil {
		return err
	}
	return t.ApplyBulk(st)
}

// ApplyBulk writes a staged batch into the table under one acquisition of
// the database mutex. When the table is structurally empty (never written, or
// freshly created) the staged runs go to storage.BTree.BulkLoad: the
// primary tree and every secondary index are built with sequential page
// writes, and nothing but those writes happens under the lock. On a
// non-empty table it degrades to the row-at-a-time insert path, in input
// order (still one lock acquisition); there a conflict with a stored row
// stops the batch at the offending row and earlier rows remain, exactly as
// with repeated Insert calls.
func (t *Table) ApplyBulk(st *BulkStage) error {
	if st.lay.schema.Name != t.Name() {
		return fmt.Errorf("relstore: batch staged for %s applied to %s", st.lay.schema.Name, t.Name())
	}
	if st.n == 0 {
		return nil
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()

	// The fast path needs every tree structurally empty (BulkLoad's
	// precondition — a lazily-emptied tree may still have internal pages).
	v := &t.view
	empty, err := v.primary.Empty()
	if err != nil {
		return err
	}
	for _, ix := range v.schema.Indexes {
		if !empty {
			break
		}
		if empty, err = v.indexes[ix.Name].Empty(); err != nil {
			return err
		}
	}
	if !empty {
		for i := 0; i < st.n; i++ {
			c, j := st.chunk(i)
			row, err := decodeRow(st.chunks[c].rows.at(j))
			if err != nil {
				return err
			}
			if err := t.insertLocked(row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := v.primary.BulkLoad(st.n, st.prim.at); err != nil {
		return err
	}
	for j, ix := range v.schema.Indexes {
		if err := v.indexes[ix.Name].BulkLoad(st.n, st.index[j].at); err != nil {
			return err
		}
	}
	return t.db.noteRootsLocked(t)
}
