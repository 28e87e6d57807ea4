package treestore

import (
	"errors"
	"fmt"

	"repro/internal/phylo"
	"repro/internal/relstore"
	"repro/internal/shard"
)

// The tests drive a Store of their own; a binary opens its databases and
// layers the repositories over them with NewOnShards.

// Open opens (creating if needed) a repository in the page file at path.
func Open(path string) (*Store, error) {
	db, err := relstore.OpenDB(path)
	if err != nil {
		return nil, err
	}
	s, err := newOnDB(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// OpenMem opens an in-memory repository.
func OpenMem() *Store {
	s, err := newOnDB(relstore.OpenMemDB())
	if err != nil {
		panic("treestore: init mem store: " + err.Error())
	}
	return s
}

// oneShard routes every tree to the one database of a single-shard store.
var oneShard, _ = shard.NewRouter(1)

// newOnDB layers a tree repository over one relational database.
func newOnDB(db *relstore.DB) (*Store, error) {
	return NewOnShards([]*relstore.DB{db}, oneShard)
}

// Commit flushes buffered pages of every shard to disk.
func (s *Store) Commit() error {
	var errs []error
	for i, db := range s.dbs {
		if err := db.Commit(); err != nil {
			errs = append(errs, fmt.Errorf("treestore: committing shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close commits and closes every shard's database.
func (s *Store) Close() error {
	return shard.CloseAll(s.dbs)
}

// Load stores the tree under the given name with depth bound f and commits.
func (s *Store) Load(name string, t *phylo.Tree, f int, progress Progress) (*PreparedLoad, error) {
	return s.LoadOpts(name, t, f, LoadOptions{}, progress)
}

// Snapshot pins the last committed state of every shard.
func (s *Store) Snapshot() *Snap {
	sns := make([]*relstore.Snap, len(s.dbs))
	for i, db := range s.dbs {
		sns[i] = db.Snapshot()
	}
	return &Snap{sns: sns, router: s.router}
}

// Close releases every shard's epoch pin. Safe to call multiple times.
func (sn *Snap) Close() {
	for _, rs := range sn.sns {
		rs.Close()
	}
}
