package relstore

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/storage"
)

// TableView is the read surface of a table: the schema plus the B+trees the
// reads run against. Snap.Table hands one out with the trees opened at the
// roots its snapshot pinned. Those pages are immutable (copy-on-write writers
// never touch them, and epoch reclamation waits for the snapshot to close),
// so a view takes no lock at all: Get, Scan and the index scans run in
// parallel with bulk loads, deletes and commits, and a scan callback may
// issue further reads on the same view. (A Table keeps one over the writer's
// working trees, for the reads it makes under the database mutex.)
// Every read hands out the stored row where it lies, a Row over the bytes of
// the page image, and decodes nothing.
//
// A view keeps nothing between calls. A request that reads many rows by key
// takes a Reader from it, which holds the primary leaves it has been to for
// as long as the request lasts.
type TableView struct {
	schema  Schema
	keyCol  int
	primary *storage.BTree
	indexes map[string]*storage.BTree
}

// Schema returns a copy of the table's schema.
func (v *TableView) Schema() Schema {
	s := v.schema
	s.Columns = append([]Column(nil), v.schema.Columns...)
	s.Indexes = append([]Index(nil), v.schema.Indexes...)
	return s
}

// Name returns the table name.
func (v *TableView) Name() string { return v.schema.Name }

func (v *TableView) checkRow(row Tuple) error {
	if len(row) != len(v.schema.Columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrSchemaRow, len(row), len(v.schema.Columns))
	}
	for i, val := range row {
		if val.Type != v.schema.Columns[i].Type {
			return fmt.Errorf("%w: column %s wants %s, got %s",
				ErrSchemaRow, v.schema.Columns[i].Name, v.schema.Columns[i].Type, val.Type)
		}
	}
	return nil
}

func (v *TableView) primaryKey(row Tuple) []byte { return EncodeKey(row[v.keyCol]) }

func (v *TableView) indexKey(ix Index, row Tuple) []byte {
	vals := make([]Value, 0, len(ix.Columns)+1)
	for _, c := range ix.Columns {
		ci, _ := v.schema.colIndex(c)
		vals = append(vals, row[ci])
	}
	vals = append(vals, row[v.keyCol])
	return EncodeKey(vals...)
}

// indexPrefix encodes just the indexed column values, for prefix scans.
func (v *TableView) indexPrefix(ix Index, vals []Value) ([]byte, error) {
	if len(vals) > len(ix.Columns) {
		return nil, fmt.Errorf("relstore: %d values for %d-column index %s", len(vals), len(ix.Columns), ix.Name)
	}
	var key []byte
	for i, val := range vals {
		ci, _ := v.schema.colIndex(ix.Columns[i])
		if val.Type != v.schema.Columns[ci].Type {
			return nil, fmt.Errorf("%w: index %s column %s wants %s, got %s",
				ErrSchemaRow, ix.Name, ix.Columns[i], v.schema.Columns[ci].Type, val.Type)
		}
		key = appendTupleValue(key, val)
	}
	return key, nil
}

func (v *TableView) indexVals(ix Index, row Tuple) []Value {
	vals := make([]Value, len(ix.Columns))
	for i, c := range ix.Columns {
		ci, _ := v.schema.colIndex(c)
		vals[i] = row[ci]
	}
	return vals
}

func (v *TableView) findIndex(name string) (Index, *storage.BTree, error) {
	for _, ix := range v.schema.Indexes {
		if ix.Name == name {
			return ix, v.indexes[name], nil
		}
	}
	return Index{}, nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, v.schema.Name, name)
}

// Get fetches the row with the given primary key value.
func (v *TableView) Get(key Value) (Row, bool, error) {
	return v.GetCtx(context.Background(), key)
}

// GetCtx is Get attributing engine counters (B+tree descents, page reads,
// pool hits/misses) to the request span carried by ctx, if any.
func (v *TableView) GetCtx(ctx context.Context, key Value) (Row, bool, error) {
	if key.Type != v.schema.Columns[v.keyCol].Type {
		return Row{}, false, fmt.Errorf("%w: key wants %s, got %s",
			ErrSchemaRow, v.schema.Columns[v.keyCol].Type, key.Type)
	}
	enc, ok, err := v.primary.GetCtx(ctx, EncodeKey(key))
	return Row{enc}, ok, err
}

// GetBatchCtx fetches many rows by primary key in one storage pass:
// encoded keys are handed to the B+tree's batched point read, which visits
// them in sorted order and shares one descent across keys landing in the
// same leaf. Results are positional — rows[i]/found[i] answer keys[i].
func (v *TableView) GetBatchCtx(ctx context.Context, keys []Value) ([]Row, []bool, error) {
	keyType := v.schema.Columns[v.keyCol].Type
	enc := make([][]byte, len(keys))
	for i, key := range keys {
		if key.Type != keyType {
			return nil, nil, fmt.Errorf("%w: key wants %s, got %s",
				ErrSchemaRow, keyType, key.Type)
		}
		enc[i] = EncodeKey(key)
	}
	vals, found, err := v.primary.GetBatch(ctx, enc)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Row, len(keys))
	for i, val := range vals {
		rows[i] = Row{val}
	}
	return rows, found, nil
}

// Len returns the row count.
func (v *TableView) Len() (int, error) {
	return v.primary.Len()
}

// ScanCtx visits all rows in primary key order under ctx: the scan checks
// the context cooperatively and aborts with its error once it is done. The
// callback returns false to stop early. The Row is the callback's for the
// length of the call.
func (v *TableView) ScanCtx(ctx context.Context, fn func(Row) (bool, error)) error {
	return v.ScanRangeCtx(ctx, Value{}, Value{}, fn)
}

// ScanRangeCtx visits rows with primary key in [lo, hi) under ctx; either
// bound may be the zero Value meaning unbounded.
func (v *TableView) ScanRangeCtx(ctx context.Context, lo, hi Value, fn func(Row) (bool, error)) error {
	var start []byte
	if lo.Type != 0 {
		start = EncodeKey(lo)
	}
	var hiKey []byte
	if hi.Type != 0 {
		hiKey = EncodeKey(hi)
	}
	return v.primary.Scan(ctx, start, func(key, enc []byte) (bool, error) {
		if hiKey != nil && bytes.Compare(key, hiKey) >= 0 {
			return false, nil
		}
		return fn(Row{enc})
	})
}

// indexBatchMax caps how many index entries are resolved by one batched
// primary read: enough that a long range shares one descent per primary
// leaf, small enough that the rows buffered ahead of the callback stay in
// the tens of kilobytes.
const indexBatchMax = 1024

// indexRowScan streams the index entries from start for as long as within
// accepts their keys, resolves them to primary rows and hands those to fn
// in index order. Entries are resolved in batches through the primary
// tree's batched point read, which shares one descent among the keys of a
// batch that land in one primary leaf. Batches start at one entry and
// double up to indexBatchMax, so a lookup that stops at its first match
// costs one index descent and one primary descent, and a scan that stops
// after n rows has resolved fewer than 2n. The per-request counter set is
// resolved from ctx once, not per entry.
func (v *TableView) indexRowScan(ctx context.Context, index string, tree *storage.BTree, start []byte, within func(key []byte) bool, fn func(Row) (bool, error)) error {
	ctr := obs.CountersFrom(ctx)
	var pks [][]byte
	limit := 1
	// flush resolves the collected entries and delivers their rows; it
	// reports whether fn wants more.
	flush := func() (bool, error) {
		vals, found, err := v.primary.GetBatchC(ctx, pks, ctr)
		if err != nil {
			return false, err
		}
		for i, enc := range vals {
			if !found[i] {
				return false, fmt.Errorf("relstore: index %s.%s points at missing row", v.schema.Name, index)
			}
			if cont, err := fn(Row{enc}); err != nil || !cont {
				return false, err
			}
		}
		pks = pks[:0]
		if limit < indexBatchMax {
			limit *= 2
		}
		return true, nil
	}
	stopped := false
	err := tree.Scan(ctx, start, func(key, pk []byte) (bool, error) {
		if !within(key) {
			return false, nil
		}
		pks = append(pks, pk)
		if len(pks) < limit {
			return true, nil
		}
		cont, err := flush()
		stopped = !cont
		return cont, err
	})
	if err != nil || stopped || len(pks) == 0 {
		return err
	}
	if _, err := flush(); err != nil {
		return fail(ctx, err)
	}
	return nil
}

// IndexScanCtx visits rows whose indexed columns equal vals (a prefix of
// the index columns may be given) under ctx. Rows arrive in index order.
func (v *TableView) IndexScanCtx(ctx context.Context, index string, vals []Value, fn func(Row) (bool, error)) error {
	ix, tree, err := v.findIndex(index)
	if err != nil {
		return err
	}
	prefix, err := v.indexPrefix(ix, vals)
	if err != nil {
		return err
	}
	return v.indexRowScan(ctx, index, tree, prefix, func(key []byte) bool {
		return bytes.HasPrefix(key, prefix)
	}, fn)
}

// IndexRangeCtx visits rows whose first indexed column lies in [lo, hi)
// under ctx; either bound may be the zero Value for unbounded.
func (v *TableView) IndexRangeCtx(ctx context.Context, index string, lo, hi Value, fn func(Row) (bool, error)) error {
	ix, tree, err := v.findIndex(index)
	if err != nil {
		return err
	}
	var start []byte
	if lo.Type != 0 {
		if start, err = v.indexPrefix(ix, []Value{lo}); err != nil {
			return err
		}
	}
	var hiKey []byte
	if hi.Type != 0 {
		if hiKey, err = v.indexPrefix(ix, []Value{hi}); err != nil {
			return err
		}
	}
	return v.indexRowScan(ctx, index, tree, start, func(key []byte) bool {
		return hiKey == nil || bytes.Compare(key, hiKey) < 0
	}, fn)
}

// Check verifies one table view: B+tree structural invariants, row
// decodability against the schema, and bidirectional consistency between
// the primary tree and every secondary index.
func (v *TableView) Check() error {
	if err := v.primary.Check(); err != nil {
		return fmt.Errorf("relstore: %s primary tree: %w", v.schema.Name, err)
	}
	for name, tree := range v.indexes {
		if err := tree.Check(); err != nil {
			return fmt.Errorf("relstore: %s index %s tree: %w", v.schema.Name, name, err)
		}
	}
	// Forward pass: every row decodes, matches the schema, is keyed
	// correctly, and owns one entry in every index.
	rows := 0
	c, err := v.primary.First()
	if err != nil {
		return err
	}
	defer c.Close()
	for c.Valid() {
		enc, err := c.Value()
		if err != nil {
			return err
		}
		row, err := decodeRow(enc)
		if err != nil {
			return fmt.Errorf("relstore: %s: undecodable row at key %x: %w", v.schema.Name, c.Key(), err)
		}
		if err := v.checkRow(row); err != nil {
			return fmt.Errorf("relstore: %s: stored row violates schema: %w", v.schema.Name, err)
		}
		if !bytes.Equal(v.primaryKey(row), c.Key()) {
			return fmt.Errorf("relstore: %s: row stored under wrong key %x", v.schema.Name, c.Key())
		}
		for _, ix := range v.schema.Indexes {
			pk, ok, err := v.indexes[ix.Name].Get(v.indexKey(ix, row))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("relstore: %s: row %s missing from index %s", v.schema.Name, row[v.keyCol], ix.Name)
			}
			if !bytes.Equal(pk, v.primaryKey(row)) {
				return fmt.Errorf("relstore: %s: index %s entry for %s holds wrong primary key", v.schema.Name, ix.Name, row[v.keyCol])
			}
		}
		rows++
		if err := c.Next(); err != nil {
			return err
		}
	}
	// Reverse pass: every index entry points at a live row, and entry
	// counts match the row count (no dangling or duplicate entries).
	for _, ix := range v.schema.Indexes {
		entries := 0
		ic, err := v.indexes[ix.Name].First()
		if err != nil {
			return err
		}
		for ic.Valid() {
			pk, err := ic.Value()
			if err != nil {
				ic.Close()
				return err
			}
			if ok, err := v.primary.Has(pk); err != nil {
				ic.Close()
				return err
			} else if !ok {
				err := fmt.Errorf("relstore: %s: index %s entry %x dangles", v.schema.Name, ix.Name, ic.Key())
				ic.Close()
				return err
			}
			entries++
			if err := ic.Next(); err != nil {
				ic.Close()
				return err
			}
		}
		ic.Close()
		if entries != rows {
			return fmt.Errorf("relstore: %s: index %s has %d entries for %d rows", v.schema.Name, ix.Name, entries, rows)
		}
	}
	return nil
}
