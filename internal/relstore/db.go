package relstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// catalogRootSlot is the meta-page slot holding the catalog tree root.
const catalogRootSlot = 0

// ErrNoTable is returned when a named table does not exist.
var ErrNoTable = errors.New("relstore: no such table")

// ErrTableExists is returned by CreateTable for duplicate names.
var ErrTableExists = errors.New("relstore: table already exists")

// catalogEntry is the persisted description of one table.
type catalogEntry struct {
	Schema      Schema                    `json:"schema"`
	PrimaryRoot storage.PageID            `json:"primary_root"`
	IndexRoots  map[string]storage.PageID `json:"index_roots"`
}

// DB is a small embedded relational database: a set of named tables stored
// in one page file, with a persistent catalog. All mutations become durable
// at Commit (or Close).
//
// Concurrency: the database is multi-version, and a read sees committed
// state, whole or not at all. Every read goes through a Snapshot, whose table
// views read copy-on-write pages pinned at the last committed epoch and take
// no database lock: they never wait on a writer, and a writer never waits on
// them. One mutex serializes the writer's side — each mutation of a Table,
// CreateTable, DropTable and the capture of a Commit.
type DB struct {
	mu      sync.Mutex
	store   *storage.Store
	catalog *storage.BTree
	tables  map[string]*Table
}

// OpenDB opens (creating if needed) a database in the page file at path.
// If the file was not shut down cleanly, WAL recovery is followed by a
// reclamation sweep: retire lists are kept in memory, so a crash between
// retiring pages (a COW rewrite, a dropped relation) and reclaiming them
// leaks the pages — unreachable from any root, yet not on the free list.
// The sweep diffs the pages reachable from the recovered catalog against
// the page file and returns the leaked ones to the free list, so crashes
// cannot grow the file permanently. Cleanly closed files skip the sweep —
// the clean-shutdown flag in the meta page certifies nothing was pending
// — keeping open O(1) in the database size on the common path.
func OpenDB(path string) (*DB, error) {
	store, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	db, err := newDB(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	if !store.WasCleanShutdown() {
		if _, err := db.sweepLeaked(); err != nil {
			store.Close()
			return nil, fmt.Errorf("relstore: startup reclamation sweep: %w", err)
		}
	}
	return db, nil
}

// sweepLeaked computes the set of pages reachable from the published state
// — the catalog tree plus every table's primary tree, secondary indexes
// and overflow chains — and frees everything the page file holds beyond
// that set and the free list. It runs single-threaded at open, before any
// snapshot or writer exists. If a root slot other than the catalog's is in
// use the sweep backs off entirely: it cannot prove reachability for a
// layout it does not understand.
func (db *DB) sweepLeaked() (int, error) {
	if db.catalog == nil {
		return 0, nil
	}
	for slot := 0; slot < storage.NumRoots; slot++ {
		if slot != catalogRootSlot && db.store.Root(slot) != 0 {
			return 0, nil
		}
	}
	reachable := make(map[storage.PageID]bool)
	visit := func(id storage.PageID) { reachable[id] = true }
	if err := db.catalog.Pages(visit); err != nil {
		return 0, fmt.Errorf("walking catalog: %w", err)
	}
	names, err := db.Tables()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return 0, err
		}
		if err := t.view.primary.Pages(visit); err != nil {
			return 0, fmt.Errorf("walking %s: %w", name, err)
		}
		for ixName, tree := range t.view.indexes {
			if err := tree.Pages(visit); err != nil {
				return 0, fmt.Errorf("walking %s index %s: %w", name, ixName, err)
			}
		}
	}
	return db.store.ReclaimUnreachable(reachable)
}

// NewOnReplicaStore layers a database over a replication-follower store.
// Nothing is bootstrapped or committed: a replica's pages arrive solely
// through applied batches, so the catalog is opened at whatever root the
// replicated meta page names (nil until the primary's first commit
// arrives; Reload picks it up). No reclamation sweep runs either — a
// replica never frees pages on its own.
func NewOnReplicaStore(store *storage.Store) *DB {
	db := &DB{store: store, tables: make(map[string]*Table)}
	if root := store.Root(catalogRootSlot); root != 0 {
		db.catalog = storage.OpenBTree(store, root)
	}
	return db
}

// Reload reopens the catalog at the store's current root slot and drops
// every cached writer's handle: on a follower applied batches move the roots
// under them (snapshots re-resolve per snapshot and never notice). A promote
// calls it before the first write.
func (db *DB) Reload() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if root := db.store.Root(catalogRootSlot); root != 0 {
		db.catalog = storage.OpenBTree(db.store, root)
	} else {
		db.catalog = nil
	}
	db.tables = make(map[string]*Table)
}

// Sweep runs the leaked-page reclamation sweep (see OpenDB) on demand: a
// promoted follower calls it because snapshot catch-ups synthesize an
// empty free list, leaking whatever the old primary's free list held.
// The caller must ensure no writer is active; concurrent snapshot reads
// are safe — the sweep only frees pages unreachable from every epoch a
// replica ever applied.
func (db *DB) Sweep() (int, error) {
	return db.sweepLeaked()
}

// OpenMemDB opens a database backed entirely by memory.
func OpenMemDB() *DB {
	db, err := newDB(storage.OpenMem())
	if err != nil {
		panic("relstore: open mem db: " + err.Error())
	}
	return db
}

func newDB(store *storage.Store) (*DB, error) {
	db := &DB{store: store, tables: make(map[string]*Table)}
	root := store.Root(catalogRootSlot)
	if root == 0 {
		tree, err := storage.NewBTree(store)
		if err != nil {
			return nil, err
		}
		db.catalog = tree
		store.SetRoot(catalogRootSlot, tree.Root())
		// Publish the empty catalog so snapshots taken before the first
		// user commit see an empty database rather than no database.
		if err := store.Commit(); err != nil {
			return nil, err
		}
	} else {
		db.catalog = storage.OpenBTree(store, root)
	}
	return db, nil
}

// Store exposes the underlying page store (used by tests and fsck).
func (db *DB) Store() *storage.Store { return db.store }

// MVCC reports the storage engine's epoch, open snapshot count and
// reclamation backlog (surfaced in server stats and serve logs).
func (db *DB) MVCC() storage.MVCCStats { return db.store.MVCC() }

// CreateTable creates a new table from schema.
func (db *DB) CreateTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if db.store.IsReplica() {
		return nil, fmt.Errorf("relstore: replica is read-only: cannot create table %s", schema.Name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.loadTable(schema.Name); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, schema.Name)
	} else if !errors.Is(err, ErrNoTable) {
		return nil, err
	}
	primary, err := storage.NewBTree(db.store)
	if err != nil {
		return nil, err
	}
	keyCol, _ := schema.colIndex(schema.Key)
	t := &Table{
		view: TableView{
			schema:  schema,
			keyCol:  keyCol,
			primary: primary,
			indexes: make(map[string]*storage.BTree, len(schema.Indexes)),
		},
		db:          db,
		primaryRoot: primary.Root(),
		indexRoots:  make(map[string]storage.PageID, len(schema.Indexes)),
	}
	for _, ix := range schema.Indexes {
		tree, err := storage.NewBTree(db.store)
		if err != nil {
			return nil, err
		}
		t.view.indexes[ix.Name] = tree
		t.indexRoots[ix.Name] = tree.Root()
	}
	if err := db.saveTable(t); err != nil {
		return nil, err
	}
	db.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table, loading it from the catalog if needed.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.loadTable(name)
}

func (db *DB) loadTable(name string) (*Table, error) {
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	if db.catalog == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	enc, ok, err := db.catalog.Get(catalogKey(name))
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
	t := &Table{
		view: TableView{
			schema:  ent.Schema,
			keyCol:  keyCol,
			primary: storage.OpenBTree(db.store, ent.PrimaryRoot),
			indexes: make(map[string]*storage.BTree, len(ent.IndexRoots)),
		},
		db:          db,
		primaryRoot: ent.PrimaryRoot,
		indexRoots:  make(map[string]storage.PageID, len(ent.IndexRoots)),
	}
	for ixName, root := range ent.IndexRoots {
		t.view.indexes[ixName] = storage.OpenBTree(db.store, root)
		t.indexRoots[ixName] = root
	}
	db.tables[name] = t
	return t, nil
}

// Tables lists the names of all tables in catalog order.
func (db *DB) Tables() ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.catalog == nil {
		return nil, nil
	}
	var names []string
	c, err := db.catalog.First()
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

// DropTable removes the table from the catalog and retires every page of
// its primary tree and indexes through epoch reclamation: snapshots opened
// before the drop keep reading the relation until they close, after which
// the pages return to the free list — deletes no longer leak space.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.loadTable(name)
	if err != nil {
		return err
	}
	ok, err := db.catalog.Delete(catalogKey(name))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	delete(db.tables, name)
	db.syncCatalogRoot()
	if err := t.view.primary.RetireAll(); err != nil {
		return err
	}
	for _, tree := range t.view.indexes {
		if err := tree.RetireAll(); err != nil {
			return err
		}
	}
	return nil
}

// noteRootsLocked re-saves the table's catalog entry if any of its B+tree
// roots moved. Under copy-on-write roots move on nearly every mutation.
// Called by tables after each mutation; the caller holds the database
// mutex.
func (db *DB) noteRootsLocked(t *Table) error {
	moved := t.view.primary.Root() != t.primaryRoot
	if !moved {
		for name, tree := range t.view.indexes {
			if tree.Root() != t.indexRoots[name] {
				moved = true
				break
			}
		}
	}
	if !moved {
		return nil
	}
	return db.saveTable(t)
}

func (db *DB) saveTable(t *Table) error {
	t.primaryRoot = t.view.primary.Root()
	for name, tree := range t.view.indexes {
		t.indexRoots[name] = tree.Root()
	}
	ent := catalogEntry{Schema: t.view.schema, PrimaryRoot: t.primaryRoot, IndexRoots: t.indexRoots}
	enc, err := json.Marshal(&ent)
	if err != nil {
		return err
	}
	if err := db.catalog.Put(catalogKey(t.view.schema.Name), enc); err != nil {
		return err
	}
	db.syncCatalogRoot()
	return nil
}

func (db *DB) syncCatalogRoot() {
	if root := db.catalog.Root(); root != db.store.Root(catalogRootSlot) {
		db.store.SetRoot(catalogRootSlot, root)
	}
}

func catalogKey(name string) []byte { return []byte("table/" + name) }

// CommitWaiter is the handle for an in-flight commit (see CommitAsync).
type CommitWaiter = storage.CommitWaiter

// Commit makes all buffered changes durable and publishes them as a new
// epoch: snapshots taken after Commit see the new state, snapshots taken
// before keep their own.
func (db *DB) Commit() error {
	return db.CommitAsync().Wait()
}

// CommitAsync captures the transaction under the database lock and returns
// a waiter for its durability. The caller may release its own write mutex
// before Wait — that window is what lets concurrent committers coalesce
// into one WAL fsync (group commit).
func (db *DB) CommitAsync() *CommitWaiter {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.store.CommitAsync()
}

// Checkpoint synchronously flushes committed pages to the page file and
// truncates the WAL (a no-op for in-memory databases). Used by fsck-style
// verification and crash tests that copy the page file directly.
func (db *DB) Checkpoint() error {
	return db.store.Checkpoint()
}

// SetCheckpointPolicy adjusts the background checkpointer's byte threshold
// and age interval (non-positive values leave a knob unchanged).
func (db *DB) SetCheckpointPolicy(bytes int64, interval time.Duration) {
	db.store.SetCheckpointPolicy(bytes, interval)
}

// CheckpointBacklog reports the bytes of committed pages awaiting
// checkpoint writeback (surfaced in server stats and the commit bench).
func (db *DB) CheckpointBacklog() int64 { return db.store.CheckpointBacklog() }

// WALSize reports the write-ahead log's current size in bytes.
func (db *DB) WALSize() int64 { return db.store.WALSize() }

// Close commits and closes the underlying store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.store.Close()
}
