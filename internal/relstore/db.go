package relstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// catalogRootSlot is the meta-page slot holding the catalog tree root.
const catalogRootSlot = 0

// ErrNoTable is returned when a named table does not exist.
var ErrNoTable = errors.New("relstore: no such table")

// errTableExists is returned by CreateTable for duplicate names.
var errTableExists = errors.New("relstore: table already exists")

// errReplica is returned by the writer's side of a database over a replica
// store.
var errReplica = errors.New("relstore: replica is read-only (promote before writing)")

// catalogEntry is the persisted description of one table. Created is the
// epoch of the first commit that could carry the table (see
// TableView.Created); entries written before it existed decode as 0.
type catalogEntry struct {
	Schema      Schema                    `json:"schema"`
	PrimaryRoot storage.PageID            `json:"primary_root"`
	IndexRoots  map[string]storage.PageID `json:"index_roots"`
	Created     uint64                    `json:"created,omitempty"`
}

// DB is a small embedded relational database: a set of named tables stored
// in one page file, with a persistent catalog. All mutations become durable
// at Commit (or Close).
//
// Concurrency: the database is multi-version, and a read sees committed
// state, whole or not at all. Every read goes through a Snapshot, whose table
// views (decoded once per committed epoch, shared by its snapshots) read
// copy-on-write pages pinned at the last committed epoch and take no
// database lock: they never wait on a writer, and a writer never waits on
// them. One mutex serializes the writer's side — each mutation of a Table,
// CreateTable, DropTable and the capture of a Commit.
type DB struct {
	mu      sync.Mutex
	store   *storage.Store
	catalog *storage.BTree // the writer's; nil until its first use
	tables  map[string]*Table
	views   atomic.Pointer[epochViews] // of the newest epoch a snapshot read
}

// OpenDB opens (creating if needed) a database in the page file at path.
// After a crash WAL recovery lands on the last commit, whose meta page
// lists every page no state references, so opening costs the same as
// after a clean close. A crashed file of an older format lacks the pending
// ids; OpenDB lists the pages the catalog does not reach, once.
func OpenDB(path string) (*DB, error) {
	store, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	db, err := NewOnStore(store)
	if err == nil && store.Incomplete() {
		if _, err = db.account(); err == nil {
			err = db.Commit()
		}
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return db, nil
}

// account runs the store's page accounting (ReclaimUnreachable) against
// the pages a snapshot of the database reaches; on an Incomplete store it
// completes the list.
func (db *DB) account() (int, error) {
	sn := db.Snapshot()
	defer sn.Close()
	reachable, err := sn.reachable()
	if err != nil || reachable == nil {
		return 0, err
	}
	return db.store.ReclaimUnreachable(sn.ss, reachable)
}

// OpenMemDB opens a database backed entirely by memory.
func OpenMemDB() *DB {
	db, err := NewOnStore(storage.OpenMem())
	if err != nil {
		panic("relstore: open mem db: " + err.Error())
	}
	return db
}

// NewOnStore layers a database over an open page store. A writable store
// without a catalog gets an empty one, published as its first epoch. A
// replica is left untouched: its pages arrive solely through applied
// batches, and its writer side (Table, CreateTable, DropTable) refuses
// until the store is promoted.
func NewOnStore(store *storage.Store) (*DB, error) {
	db := &DB{store: store, tables: make(map[string]*Table)}
	if store.IsReplica() || store.Root(catalogRootSlot) != 0 {
		return db, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.catalogLocked(); err != nil {
		return nil, err
	}
	// Publish the empty catalog so snapshots taken before the first user
	// commit see an empty database rather than no database.
	if err := store.Commit(); err != nil {
		return nil, err
	}
	return db, nil
}

// catalogLocked returns the writer's catalog, opened at its first use from
// the store's root slot (created empty if the slot is empty), so a
// promoted replica's writer starts at the root its last applied batch
// left. A replica store refuses: this is the one check that keeps writers
// off it. The caller holds db.mu.
func (db *DB) catalogLocked() (*storage.BTree, error) {
	if db.store.IsReplica() {
		return nil, errReplica
	}
	if db.catalog != nil {
		return db.catalog, nil
	}
	if root := db.store.Root(catalogRootSlot); root != 0 {
		db.catalog = storage.OpenBTree(db.store, root)
		return db.catalog, nil
	}
	tree, err := storage.NewBTree(db.store)
	if err != nil {
		return nil, err
	}
	db.catalog = tree
	db.store.SetRoot(catalogRootSlot, tree.Root())
	return tree, nil
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
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.loadTable(schema.Name); err == nil {
		return nil, fmt.Errorf("%w: %s", errTableExists, schema.Name)
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
			created: db.store.NextEpoch(),
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
// Over a replica store it refuses, as CreateTable and DropTable do: the
// writer's handles resolve at their first use after a promote.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.loadTable(name)
}

func (db *DB) loadTable(name string) (*Table, error) {
	catalog, err := db.catalogLocked()
	if err != nil {
		return nil, err
	}
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	enc, ok, err := catalog.Get(catalogKey(name))
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
			created: ent.Created,
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
	ent := catalogEntry{Schema: t.view.schema, PrimaryRoot: t.primaryRoot, IndexRoots: t.indexRoots, Created: t.view.created}
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
// resets the WAL (a no-op for in-memory databases). Used by fsck-style
// verification and crash tests that copy the page file directly.
func (db *DB) Checkpoint() error {
	return db.store.Checkpoint()
}

// SetCheckpointPolicy adjusts the background checkpointer's byte threshold
// and age interval (non-positive values leave a knob unchanged).
func (db *DB) SetCheckpointPolicy(bytes int64, interval time.Duration) {
	db.store.SetCheckpointPolicy(bytes, interval)
}

// Close commits and closes the underlying store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.store.Close()
}
