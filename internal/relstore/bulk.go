package relstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// This file is the bulk path in two halves. StageBulk is lock-free and
// touches no database: it needs only the schema, encodes the rows, builds
// the primary run and one run per secondary index, sorts them and finishes
// every check that can reject the batch. Table.ApplyBulk then runs under the
// database mutex and only hands the finished runs to BTree.BulkLoad.
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
// is buf[end[i-1]:end[i]]. Neither slice holds a pointer, so a staged batch
// costs the collector nothing to scan.
type arena struct {
	buf []byte
	end []int
}

func (a *arena) at(i int) []byte {
	lo := 0
	if i > 0 {
		lo = a.end[i-1]
	}
	return a.buf[lo:a.end[i]:a.end[i]]
}

// close ends the entry being appended to buf.
func (a *arena) close() { a.end = append(a.end, len(a.buf)) }

// reserve sizes the arena for n entries once the first is in: a batch's
// rows are mostly alike, so the first one's size is the estimate.
func (a *arena) reserve(n int) {
	a.buf = slices.Grow(a.buf, (n-1)*(len(a.buf)+len(a.buf)/8))
}

// appendAll appends every entry of b.
func (a *arena) appendAll(b *arena) {
	base := len(a.buf)
	a.buf = append(a.buf, b.buf...)
	for _, e := range b.end {
		a.end = append(a.end, base+e)
	}
}

// RowWriter receives the rows of one contiguous range of a batch, a value
// at a time in column order, and encodes each straight into the stage's
// arenas: the stored row, the primary key and every index key. No Tuple is
// built. The first value of the wrong type, or a row with the wrong number
// of values, fails the whole batch with ErrSchemaRow.
type RowWriter struct {
	lay  *bulkLayout
	rows arena   // encoded rows, in input order
	pks  arena   // primary keys
	keys []arena // per schema index: (indexed columns..., primary key)
	plen [][]int // per unique index: length of each key's indexed-columns part

	col          int    // values written to the current row so far
	tup          []byte // tuple encodings of the current row's keyed columns
	tupLo, tupHi []int  // per keyed column: its extent in tup
	err          error
}

func newRowWriter(lay *bulkLayout, n int) *RowWriter {
	w := &RowWriter{
		lay:   lay,
		keys:  make([]arena, len(lay.ixCols)),
		plen:  make([][]int, len(lay.ixCols)),
		tupLo: make([]int, len(lay.keyed)),
		tupHi: make([]int, len(lay.keyed)),
	}
	w.rows.end = make([]int, 0, n)
	w.pks.end = make([]int, 0, n)
	for j := range w.keys {
		w.keys[j].end = make([]int, 0, n)
		if lay.schema.Indexes[j].Unique {
			w.plen[j] = make([]int, 0, n)
		}
	}
	return w
}

// Int writes the next value of the row, an integer column's.
func (w *RowWriter) Int(v int64) { w.put(Int(v)) }

// Float writes the next value of the row, a float column's.
func (w *RowWriter) Float(v float64) { w.put(Float(v)) }

// Str writes the next value of the row, a string column's.
func (w *RowWriter) Str(v string) { w.put(Str(v)) }

// Blob writes the next value of the row, a bytes column's.
func (w *RowWriter) Blob(v []byte) { w.put(Blob(v)) }

// Bool writes the next value of the row, a boolean column's.
func (w *RowWriter) Bool(v bool) { w.put(Bool(v)) }

func (w *RowWriter) put(v Value) {
	cols := w.lay.schema.Columns
	if w.err != nil || w.col >= len(cols) {
		w.col++ // endRow reports the count
		return
	}
	if c := cols[w.col]; v.Type != c.Type {
		w.err = fmt.Errorf("%w: column %s wants %s, got %s", ErrSchemaRow, c.Name, c.Type, v.Type)
		return
	}
	if w.col == 0 {
		w.rows.buf = binary.AppendUvarint(w.rows.buf, uint64(len(cols)))
	}
	w.rows.buf = appendRowValue(w.rows.buf, v)
	if w.lay.keyed[w.col] {
		w.tupLo[w.col] = len(w.tup)
		w.tup = appendTupleValue(w.tup, v)
		w.tupHi[w.col] = len(w.tup)
	}
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
		w.err = fmt.Errorf("%w: %d values for %d columns", ErrSchemaRow, w.col, n)
		return
	}
	w.rows.close()
	pk := w.tup[w.tupLo[lay.keyCol]:w.tupHi[lay.keyCol]]
	w.pks.buf = append(w.pks.buf, pk...)
	w.pks.close()
	longest := len(pk)
	for j, cols := range lay.ixCols {
		a := &w.keys[j]
		start := len(a.buf)
		for _, c := range cols {
			a.buf = append(a.buf, w.tup[w.tupLo[c]:w.tupHi[c]]...)
		}
		if w.plen[j] != nil {
			w.plen[j] = append(w.plen[j], len(a.buf)-start)
		}
		a.buf = append(a.buf, pk...)
		a.close()
		longest = max(longest, len(a.buf)-start)
	}
	if longest > storage.MaxKeySize {
		w.err = fmt.Errorf("%w: row %d of %s encodes a %d-byte key (max %d)",
			storage.ErrKeyTooLarge, len(w.rows.end)-1, lay.schema.Name, longest, storage.MaxKeySize)
	}
	if n := cap(w.rows.end); len(w.rows.end) == 1 && n > 1 {
		w.rows.reserve(n)
		w.pks.reserve(n)
		for j := range w.keys {
			w.keys[j].reserve(n)
		}
	}
	w.tup = w.tup[:0]
	w.col = 0
}

// absorb appends the rows o received after w's own.
func (w *RowWriter) absorb(o *RowWriter) {
	w.rows.appendAll(&o.rows)
	w.pks.appendAll(&o.pks)
	for j := range w.keys {
		w.keys[j].appendAll(&o.keys[j])
		w.plen[j] = append(w.plen[j], o.plen[j]...)
	}
}

// BulkStage is a batch of rows for one schema, staged: encoded, sorted into
// the runs BTree.BulkLoad takes and checked — row shapes, duplicate primary
// keys, unique indexes, key sizes. Whatever can reject the batch already
// has; what is left for Table.ApplyBulk is writing pages.
type BulkStage struct {
	lay   *bulkLayout
	n     int
	enc   *RowWriter   // every row, in input order
	prim  []storage.KV // sorted by primary key
	index [][]storage.KV
}

// Schema returns the schema the batch was staged for.
func (st *BulkStage) Schema() Schema { return st.lay.schema }

// Len returns the number of staged rows.
func (st *BulkStage) Len() int { return st.n }

// minStageChunk keeps small batches on the calling goroutine: below it a
// goroutine costs more than the rows it would encode.
const minStageChunk = 512

// StageBulk stages n rows of schema. fill(i, w) writes row i's values to w
// in column order; it runs once per row, concurrently for distinct rows on
// up to workers goroutines (workers <= 0 means GOMAXPROCS), as do the sorts
// of the primary run and the index runs. The stage is the same at every
// worker count. Nothing here takes a lock or reads a database, so a writer
// stages outside its critical section and holds the lock for ApplyBulk
// alone.
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	per := max((n+workers-1)/workers, minStageChunk)
	chunks := make([]*RowWriter, (n+per-1)/per)
	parallelDo(len(chunks), workers, func(c int) {
		lo, hi := c*per, min((c+1)*per, n)
		w := newRowWriter(lay, hi-lo)
		for i := lo; i < hi && w.err == nil; i++ {
			fill(i, w)
			w.endRow()
		}
		chunks[c] = w
	})
	for _, w := range chunks {
		if w.err != nil {
			return nil, w.err
		}
	}
	st.enc = chunks[0]
	for _, w := range chunks[1:] {
		st.enc.absorb(w)
	}

	// One run per tree. Index keys end in the primary key, so whole keys
	// never repeat; a unique index additionally rejects two rows sharing the
	// indexed-columns part, and those sort next to each other.
	st.index = make([][]storage.KV, len(lay.ixCols))
	errs := make([]error, 1+len(lay.ixCols))
	parallelDo(len(errs), workers, func(r int) {
		enc := st.enc
		if r == 0 {
			var dup int
			if st.prim, dup = sortedRun(&enc.pks, &enc.rows, nil); dup >= 0 {
				errs[0] = fmt.Errorf("%w: %s in %s", ErrDuplicateKey, keyString(enc.pks.at(dup)), schema.Name)
			}
			return
		}
		j := r - 1
		var dup int
		if st.index[j], dup = sortedRun(&enc.keys[j], &enc.pks, enc.plen[j]); dup >= 0 {
			errs[r] = fmt.Errorf("%w: unique index %s.%s", ErrDuplicateKey, schema.Name, schema.Indexes[j].Name)
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
	if vals, err := DecodeKey(key); err == nil && len(vals) == 1 {
		return vals[0].String()
	}
	return fmt.Sprintf("%x", key)
}

// sortedRun orders the staged rows by their entry in keys and pairs each
// key with the row's entry in vals. dup is -1, or a row whose key — its
// first part[row] bytes, when part is given — equals its predecessor's in
// the run.
func sortedRun(keys, vals *arena, part []int) (run []storage.KV, dup int) {
	order := make([]sortKey, len(keys.end))
	for i := range order {
		order[i].row = i
	}
	sortByKey(order, keys, 0)
	run = make([]storage.KV, len(order))
	var prev []byte
	for i, o := range order {
		key := keys.at(o.row)
		run[i] = storage.KV{Key: key, Value: vals.at(o.row)}
		if part != nil {
			key = key[:part[o.row]]
		}
		if i > 0 && bytes.Equal(prev, key) {
			return nil, o.row
		}
		prev = key
	}
	return run, -1
}

// sortKey stands for one entry while a run is sorted: eight bytes of its
// key, as a big-endian number, and the entry's row. It has no pointer, so a
// swap moves 16 bytes under no write barrier, and a comparison is two
// integer compares that never touch the keys.
type sortKey struct {
	head uint64
	row  int
}

// sortByKey sorts order by the rows' entries in keys, which all agree on
// their first off bytes. It sorts on the eight bytes after whatever prefix
// the entries share, then does the same inside every group those eight
// bytes could not tell apart — so keys with long common prefixes (a genus,
// a numbering scheme, the empty names of internal nodes) cost a pass per
// eight distinguishing bytes, not a byte-wise comparison per sort step.
func sortByKey(order []sortKey, keys *arena, off int) {
	tail := func(row int) []byte {
		k := keys.at(row)
		return k[min(off, len(k)):]
	}
	if len(order) <= 8 {
		slices.SortFunc(order, func(a, b sortKey) int { return bytes.Compare(tail(a.row), tail(b.row)) })
		return
	}
	first := tail(order[0].row)
	shared := len(first)
	for _, o := range order[1:] {
		k := tail(o.row)
		m := 0
		for m < shared && m < len(k) && k[m] == first[m] {
			m++
		}
		if shared = m; shared == 0 {
			break
		}
	}
	off += shared
	short := false // some key ends inside the eight bytes
	for i := range order {
		var head [8]byte
		short = copy(head[:], tail(order[i].row)) < 8 || short
		order[i].head = binary.BigEndian.Uint64(head[:])
	}
	byHead := func(a, b sortKey) int { return cmp.Compare(a.head, b.head) }
	if short {
		// Such a key sorts as if zero-padded, and before any longer key
		// with those zeros: length breaks the tie.
		byHead = func(a, b sortKey) int {
			if c := cmp.Compare(a.head, b.head); c != 0 {
				return c
			}
			return cmp.Compare(len(keys.at(a.row)), len(keys.at(b.row)))
		}
	}
	slices.SortFunc(order, byHead)
	for lo := 0; lo < len(order); {
		hi, more := lo+1, len(keys.at(order[lo].row)) > off+8
		for hi < len(order) && order[hi].head == order[lo].head {
			more = more || len(keys.at(order[hi].row)) > off+8
			hi++
		}
		if hi-lo > 1 && more {
			sortByKey(order[lo:hi], keys, off+8)
		}
		lo = hi
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
			row, err := decodeRow(st.enc.rows.at(i))
			if err != nil {
				return err
			}
			if err := t.insertLocked(row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := v.primary.BulkLoad(st.prim); err != nil {
		return err
	}
	for j, ix := range v.schema.Indexes {
		if err := v.indexes[ix.Name].BulkLoad(st.index[j]); err != nil {
			return err
		}
	}
	return t.db.noteRootsLocked(t)
}
