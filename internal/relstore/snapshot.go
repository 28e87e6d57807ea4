package relstore

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
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
	ss    *storage.Snap
	views *epochViews
}

// epochViews holds the table views decoded for one committed epoch. The
// snapshots of that epoch share them: a view is read-only, and its trees are
// pinned to the epoch, which each snapshot using them holds.
type epochViews struct {
	epoch   uint64
	root    storage.PageID // the catalog root the views were decoded from
	catalog *storage.BTree // nil when the epoch predates the catalog

	mu    sync.Mutex
	views map[string]*TableView
}

// Snapshot pins the last committed epoch and returns a read view of it.
func (db *DB) Snapshot() *Snap {
	ss := db.store.Snapshot()
	return &Snap{ss: ss, views: db.bindViews(ss)}
}

// bindViews binds a snapshot to the shared views of its epoch. A snapshot
// of a newer epoch installs fresh ones; one of an older epoch, or of the
// same epoch under another catalog root, decodes its own.
func (db *DB) bindViews(ss *storage.Snap) *epochViews {
	epoch, root := ss.Epoch(), ss.Root(catalogRootSlot)
	for {
		cur := db.views.Load()
		if cur != nil && cur.epoch == epoch && cur.root == root {
			return cur
		}
		ev := &epochViews{epoch: epoch, root: root, views: make(map[string]*TableView)}
		if root != 0 {
			ev.catalog = storage.OpenBTreeAt(db.store, root, epoch)
		}
		if (cur != nil && cur.epoch >= epoch) || db.views.CompareAndSwap(cur, ev) {
			return ev
		}
	}
}

// Epoch reports the committed epoch this snapshot reads.
func (s *Snap) Epoch() uint64 { return s.ss.Epoch() }

// Close releases the snapshot's epoch pin. Safe to call multiple times.
func (s *Snap) Close() { s.ss.Close() }

// Table returns a lock-free read view of the named table as of the
// snapshot. The name is the concatenation of its parts, so a caller that
// names tables by pattern — a prefix, a tree's name, a layer number — hands
// the pieces over and builds no string. A view is decoded from the catalog
// once per committed epoch and shared by every snapshot of that epoch, so
// repeated lookups are cheap: they allocate nothing.
func (s *Snap) Table(parts ...string) (*TableView, error) {
	var room [128]byte // a longer name is spelled on the heap
	spelled := room[:0]
	for _, p := range parts {
		spelled = append(spelled, p...)
	}
	ev := s.views
	ev.mu.Lock()
	v, ok := ev.views[string(spelled)]
	ev.mu.Unlock()
	if ok {
		return v, nil
	}
	name := string(spelled)
	if ev.catalog == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	enc, ok, err := ev.catalog.Get(catalogKey(name))
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
	// Views are pinned to the snapshot's epoch, so their reads fail once a
	// replicated apply invalidates it instead of reading replaced pages.
	v = &TableView{
		schema:  ent.Schema,
		keyCol:  keyCol,
		primary: storage.OpenBTreeAt(s.ss.Store(), ent.PrimaryRoot, s.ss.Epoch()),
		indexes: make(map[string]*storage.BTree, len(ent.IndexRoots)),
		created: ent.Created,
	}
	for ixName, root := range ent.IndexRoots {
		v.indexes[ixName] = storage.OpenBTreeAt(s.ss.Store(), root, s.ss.Epoch())
	}
	ev.mu.Lock()
	if prev, ok := ev.views[name]; ok {
		v = prev
	} else {
		ev.views[name] = v
	}
	ev.mu.Unlock()
	return v, nil
}

// Tables lists the names of all tables as of the snapshot.
func (s *Snap) Tables() ([]string, error) {
	if s.views.catalog == nil {
		return nil, nil
	}
	var names []string
	c, err := s.views.catalog.First()
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
	if s.views.catalog == nil {
		return nil
	}
	if err := s.views.catalog.Check(); err != nil {
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

// reachable marks every page the snapshot's catalog reaches, in a set
// indexed by page id: the catalog tree and each table's primary tree,
// secondary indexes and overflow chains. It returns nil when a root slot
// other than the catalog's is in use: reachability cannot be proven for a
// layout the database does not understand.
func (s *Snap) reachable() ([]bool, error) {
	for slot := 0; slot < storage.NumRoots; slot++ {
		if slot != catalogRootSlot && s.ss.Root(slot) != 0 {
			return nil, nil
		}
	}
	var trees []*storage.BTree
	if s.views.catalog != nil {
		trees = append(trees, s.views.catalog)
	}
	names, err := s.Tables()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		v, err := s.Table(name)
		if err != nil {
			return nil, err
		}
		trees = append(append(trees, v.primary), slices.Collect(maps.Values(v.indexes))...)
	}
	set := make([]bool, s.ss.Store().PageCount())
	for _, tree := range trees {
		if err := tree.Pages(func(id storage.PageID) { set[id] = true }); err != nil {
			return nil, fmt.Errorf("relstore: walking the catalog's trees: %w", err)
		}
	}
	return set, nil
}
