package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Schema declares a table: its columns, single-column primary key, and
// secondary indexes.
type Schema struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	Key     string   `json:"key"` // primary key column name
	Indexes []Index  `json:"indexes,omitempty"`
}

// Column is one typed column of a schema.
type Column struct {
	Name string     `json:"name"`
	Type columnType `json:"type"`
}

// Index declares a secondary index over one or more columns.
type Index struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Unique  bool     `json:"unique,omitempty"`
}

// Validate checks the schema for structural problems.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("relstore: schema without a name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relstore: table %s has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %s has an unnamed column", s.Name)
		}
		if c.Type < TInt || c.Type > TBool {
			return fmt.Errorf("relstore: table %s column %s has invalid type", s.Name, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relstore: table %s has duplicate column %s", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if _, ok := s.colIndex(s.Key); !ok {
		return fmt.Errorf("relstore: table %s primary key %q is not a column", s.Name, s.Key)
	}
	idxNames := make(map[string]bool, len(s.Indexes))
	for _, ix := range s.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("relstore: table %s has an unnamed index", s.Name)
		}
		if idxNames[ix.Name] {
			return fmt.Errorf("relstore: table %s has duplicate index %s", s.Name, ix.Name)
		}
		idxNames[ix.Name] = true
		if len(ix.Columns) == 0 {
			return fmt.Errorf("relstore: index %s.%s has no columns", s.Name, ix.Name)
		}
		for _, c := range ix.Columns {
			if _, ok := s.colIndex(c); !ok {
				return fmt.Errorf("relstore: index %s.%s references unknown column %q", s.Name, ix.Name, c)
			}
		}
	}
	return nil
}

func (s *Schema) colIndex(name string) (int, bool) {
	for i, c := range s.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Table errors.
var (
	errDuplicateKey = errors.New("relstore: duplicate key")
	errSchemaRow    = errors.New("relstore: row does not match schema")
	errNoIndex      = errors.New("relstore: no such index")
)

// Table is the writer's handle on a stored relation: a primary B+tree keyed
// by the encoded primary key holding encoded rows, plus one B+tree per
// secondary index whose keys are (indexed columns..., primary key) and whose
// values are the encoded primary key. Its trees are the working trees of the
// open transaction, so every method — the mutations and the reads a writer
// decides by (Get, ScanRange) — holds the database mutex.
// Everything else reads a Snap's TableView.
type Table struct {
	view TableView
	db   *DB

	// Roots recorded in the catalog; used to detect root movement.
	primaryRoot storage.PageID
	indexRoots  map[string]storage.PageID
}

// Name returns the table name.
func (t *Table) Name() string { return t.view.schema.Name }

// Get fetches the row with the given primary key from the working state.
func (t *Table) Get(key Value) (Row, bool, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.view.Get(key)
}

// ScanRange visits the rows of the working state with primary key in
// [lo, hi), either bound the zero Value for unbounded. fn runs under the
// database mutex: it collects, and calls nothing of the database.
func (t *Table) ScanRange(lo, hi Value, fn func(Row) (bool, error)) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.view.ScanRangeCtx(context.Background(), lo, hi, fn)
}

// Insert adds a new row; it fails with errDuplicateKey if the primary key
// (or a unique index entry) already exists.
func (t *Table) Insert(row Tuple) error {
	if err := t.view.checkRow(row); err != nil {
		return err
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.insertLocked(row)
}

func (t *Table) insertLocked(row Tuple) error {
	v := &t.view
	pk := v.primaryKey(row)
	if _, ok, err := v.primary.Get(pk); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s in %s", errDuplicateKey, row[v.keyCol], v.schema.Name)
	}
	return t.write(pk, row, nil)
}

// Put inserts or replaces the row with the same primary key. The replaced
// row is read only for the index entries it owns: without secondary
// indexes, Put writes the primary tree alone.
func (t *Table) Put(row Tuple) error {
	if err := t.view.checkRow(row); err != nil {
		return err
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	v := &t.view
	pk := v.primaryKey(row)
	var old Tuple
	if len(v.schema.Indexes) > 0 {
		oldEnc, ok, err := v.primary.Get(pk)
		if ok && err == nil {
			old, err = decodeRow(oldEnc)
		}
		if err != nil {
			return err
		}
	}
	return t.write(pk, row, old)
}

// write stores the row and maintains secondary indexes, removing entries of
// the replaced row (if any). The caller holds the database mutex.
func (t *Table) write(pk []byte, row, old Tuple) error {
	v := &t.view
	for _, ix := range v.schema.Indexes {
		if ix.Unique {
			prefix, err := v.indexPrefix(ix, v.indexVals(ix, row))
			if err != nil {
				return err
			}
			c, err := v.indexes[ix.Name].Seek(prefix)
			if err != nil {
				return err
			}
			if c.Valid() && bytes.HasPrefix(c.Key(), prefix) {
				existingPK, err := c.Value()
				if err != nil {
					c.Close()
					return err
				}
				if !bytes.Equal(existingPK, pk) {
					c.Close()
					return fmt.Errorf("%w: unique index %s.%s", errDuplicateKey, v.schema.Name, ix.Name)
				}
			}
			c.Close()
		}
	}
	if err := v.primary.Put(pk, encodeRow(row)); err != nil {
		return err
	}
	for _, ix := range v.schema.Indexes {
		tree := v.indexes[ix.Name]
		if old != nil {
			oldKey := v.indexKey(ix, old)
			newKey := v.indexKey(ix, row)
			if !bytes.Equal(oldKey, newKey) {
				if _, err := tree.Delete(oldKey); err != nil {
					return err
				}
			}
		}
		if err := tree.Put(v.indexKey(ix, row), pk); err != nil {
			return err
		}
	}
	return t.db.noteRootsLocked(t)
}

// Delete removes the row with the given primary key, reporting presence. As
// in Put, the row is read only on a table with secondary indexes.
func (t *Table) Delete(key Value) (bool, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	v := &t.view
	var row Tuple
	if len(v.schema.Indexes) > 0 {
		stored, ok, err := v.Get(key)
		if ok && err == nil {
			row, err = stored.Tuple()
		}
		if err != nil || !ok {
			return false, err
		}
	} else if keyType := v.schema.Columns[v.keyCol].Type; key.Type != keyType {
		return false, fmt.Errorf("%w: key wants %s, got %s", errSchemaRow, keyType, key.Type)
	}
	if ok, err := v.primary.Delete(encodeKey(key)); err != nil || !ok {
		return false, err
	}
	for _, ix := range v.schema.Indexes {
		if _, err := v.indexes[ix.Name].Delete(v.indexKey(ix, row)); err != nil {
			return false, err
		}
	}
	return true, t.db.noteRootsLocked(t)
}
