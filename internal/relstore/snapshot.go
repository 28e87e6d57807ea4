package relstore

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Snap is a consistent point-in-time read view of the whole database. It
// pins the storage epoch of the last commit: every table view opened from
// it reads the catalog and B+tree roots as of that commit, and the pages
// behind them are guaranteed not to be reclaimed until Close.
//
// A Snap is the one way to read the database. It acquires no database lock,
// so its reads proceed at full speed while a writer bulk-loads, deletes or
// commits, and it never sees anything committed after it was taken — nor
// anything uncommitted, ever.
//
// A Snap is safe for concurrent use by multiple goroutines. Close releases
// the epoch pin; forgetting to close a snapshot delays page reclamation
// (visible as pending_reclaim_pages in the stats) but cannot corrupt
// anything.
type Snap struct {
	ss      *storage.Snap
	catalog *storage.BTree // nil when the snapshot predates the catalog

	mu    sync.Mutex
	views map[string]*TableView
}

// Snapshot pins the last committed epoch and returns a read view of it.
func (db *DB) Snapshot() *Snap {
	ss := db.store.Snapshot()
	sn := &Snap{ss: ss, views: make(map[string]*TableView)}
	if root := ss.Root(catalogRootSlot); root != 0 {
		sn.catalog = storage.OpenBTreeAt(db.store, root, ss.Epoch())
	}
	return sn
}

// Epoch reports the committed epoch this snapshot reads.
func (s *Snap) Epoch() uint64 { return s.ss.Epoch() }

// Close releases the snapshot's epoch pin. Safe to call multiple times.
func (s *Snap) Close() { s.ss.Close() }

// Table returns a lock-free read view of the named table as of the
// snapshot. Views are cached per snapshot, so repeated lookups are cheap.
func (s *Snap) Table(name string) (*TableView, error) {
	s.mu.Lock()
	if v, ok := s.views[name]; ok {
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()
	if s.catalog == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	enc, ok, err := s.catalog.Get(catalogKey(name))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	var ent catalogEntry
	if err := json.Unmarshal(enc, &ent); err != nil {
		return nil, fmt.Errorf("relstore: catalog entry for %s: %w", name, err)
	}
	keyCol, _ := ent.Schema.colIndex(ent.Schema.Key)
	// Views are pinned to the snapshot's epoch: their pages are immutable
	// for the snapshot's lifetime, so decoded-node cache entries keyed
	// (page, epoch) are shared by every reader of this epoch.
	v := &TableView{
		schema:  ent.Schema,
		keyCol:  keyCol,
		primary: storage.OpenBTreeAt(s.ss.Store(), ent.PrimaryRoot, s.ss.Epoch()),
		indexes: make(map[string]*storage.BTree, len(ent.IndexRoots)),
	}
	for ixName, root := range ent.IndexRoots {
		v.indexes[ixName] = storage.OpenBTreeAt(s.ss.Store(), root, s.ss.Epoch())
	}
	s.mu.Lock()
	if prev, ok := s.views[name]; ok {
		v = prev
	} else {
		s.views[name] = v
	}
	s.mu.Unlock()
	return v, nil
}

// Tables lists the names of all tables as of the snapshot.
func (s *Snap) Tables() ([]string, error) {
	if s.catalog == nil {
		return nil, nil
	}
	var names []string
	c, err := s.catalog.First()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for c.Valid() {
		names = append(names, string(c.Key()[len("table/"):]))
		if err := c.Next(); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Check verifies the catalog and every table of the snapshot (see DB.Check)
// without blocking the writer.
func (s *Snap) Check() error {
	if s.catalog == nil {
		return nil
	}
	if err := s.catalog.Check(); err != nil {
		return fmt.Errorf("relstore: catalog tree: %w", err)
	}
	names, err := s.Tables()
	if err != nil {
		return err
	}
	for _, name := range names {
		v, err := s.Table(name)
		if err != nil {
			return err
		}
		if err := v.Check(); err != nil {
			return err
		}
	}
	return nil
}
