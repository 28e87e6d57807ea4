// Package species is Crimson's Species Repository (§2.1): species data —
// gene sequences and other phenotypic character data — stored separately
// from the tree structure, keyed by (tree, species, kind). The separation
// is the paper's design point: queries are structure-based, so structure
// and bulk species data must not share pages.
package species

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/relstore"
	"repro/internal/seqsim"
	"repro/internal/shard"
)

// ErrNoData is returned when a requested record does not exist.
var ErrNoData = errors.New("species: no such record")

// ErrBadKey is returned when a tree/species/kind key part is invalid
// (callers can distinguish caller mistakes from storage failures).
var ErrBadKey = errors.New("species: invalid key part")

const tableName = "species_data"

// Repo is the species data repository over a relational database. When the
// repository is sharded, species data co-locates with its tree: records
// are routed to the shard that owns the tree they belong to, so a tree and
// its sequences always live (and are deleted) together.
type Repo struct {
	dbs    []*relstore.DB
	tabs   []*relstore.Table // one species_data table per shard
	router *shard.Router
}

// initShard opens the shard's table, creating it where missing: one B+tree,
// keyed tree/species/kind. Tables created with by_species and by_tree keep
// them, kept consistent by the writer and read by nothing.
func initShard(db *relstore.DB) (*relstore.Table, error) {
	tab, err := db.Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		tab, err = db.CreateTable(relstore.Schema{
			Name: tableName,
			Columns: []relstore.Column{
				{Name: "key", Type: relstore.TString}, // tree/species/kind
				{Name: "tree", Type: relstore.TString},
				{Name: "species", Type: relstore.TString},
				{Name: "kind", Type: relstore.TString},
				{Name: "data", Type: relstore.TBytes},
			},
			Key: "key",
		})
	}
	return tab, err
}

// NewOnDB layers the repository over an existing database (shared with
// the tree repository).
func NewOnDB(db *relstore.DB) (*Repo, error) {
	return NewOnShards([]*relstore.DB{db}, shard.Single)
}

// NewOnShards layers the repository over one database per shard, using the
// same router as the tree repository so species data lands on its tree's
// shard.
func NewOnShards(dbs []*relstore.DB, router *shard.Router) (*Repo, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("species: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	r := &Repo{dbs: dbs, tabs: make([]*relstore.Table, len(dbs)), router: router}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewOnShardsReplica layers the repository over replica databases without
// touching them: a replica can neither create the table nor accept writes,
// so the writer's handles stay unresolved until a promote calls Reload.
// Views never notice — they resolve tables per snapshot.
func NewOnShardsReplica(dbs []*relstore.DB, router *shard.Router) (*Repo, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("species: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	return &Repo{dbs: dbs, tabs: make([]*relstore.Table, len(dbs)), router: router}, nil
}

// Reload (re-)resolves the writer's table handle of every shard, creating
// the table where missing. Called at construction and after a promote flips
// the underlying stores writable.
func (r *Repo) Reload() error {
	for i, db := range r.dbs {
		tab, err := initShard(db)
		if err != nil {
			return fmt.Errorf("species: initializing shard %d: %w", i, err)
		}
		r.tabs[i] = tab
	}
	return nil
}

// tabFor returns the writer's handle on the shard table that owns records of
// the given tree. On a replica it is unresolved, and a clear error beats a
// nil dereference.
func (r *Repo) tabFor(tree string) (*relstore.Table, error) {
	tab := r.tabs[r.router.Place(tree)]
	if tab == nil {
		return nil, fmt.Errorf("species: repository is a read-only replica (promote before writing)")
	}
	return tab, nil
}

func key(tree, sp, kind string) string { return tree + "/" + sp + "/" + kind }

// prefix is the key range of the records under parts: '0' is the byte after
// '/', which no part holds (validPart).
func prefix(parts ...string) (lo, hi relstore.Value) {
	p := strings.Join(parts, "/")
	return relstore.Str(p + "/"), relstore.Str(p + "0")
}

func validPart(s string) error {
	if s == "" {
		return fmt.Errorf("%w: empty", ErrBadKey)
	}
	if strings.ContainsRune(s, '/') {
		return fmt.Errorf("%w: %q contains '/'", ErrBadKey, s)
	}
	return nil
}

// Put stores (replacing) one record of species data, e.g. kind
// "seq:smallsubunit" or "trait:eyecolor".
func (r *Repo) Put(tree, sp, kind string, data []byte) error {
	for _, part := range []string{tree, sp, kind} {
		if err := validPart(part); err != nil {
			return err
		}
	}
	tab, err := r.tabFor(tree)
	if err != nil {
		return err
	}
	return tab.Put(relstore.Tuple{
		relstore.Str(key(tree, sp, kind)),
		relstore.Str(tree),
		relstore.Str(sp),
		relstore.Str(kind),
		relstore.Blob(data),
	})
}

func getRecord(tab *relstore.TableView, tree, sp, kind string) ([]byte, error) {
	row, ok, err := tab.Get(relstore.Str(key(tree, sp, kind)))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoData, key(tree, sp, kind))
	}
	vals, err := row.Tuple()
	if err != nil {
		return nil, err
	}
	return vals[4].Bytes(), nil
}

func listRecords(tab *relstore.TableView, tree, sp string) ([]Record, error) {
	var out []Record
	lo, hi := prefix(tree, sp)
	err := tab.ScanRangeCtx(context.Background(), lo, hi, func(row relstore.Row) (bool, error) {
		vals, err := row.Tuple()
		if err != nil {
			return false, err
		}
		out = append(out, Record{
			Tree:    vals[1].Text(),
			Species: vals[2].Text(),
			Kind:    vals[3].Text(),
			Data:    vals[4].Bytes(),
		})
		return true, nil
	})
	return out, err
}

// Record is one stored species-data item.
type Record struct {
	Tree    string
	Species string
	Kind    string
	Data    []byte
}

// View is the read side of the species repository, as of a snapshot: Get and
// List run lock-free against the epoch the snapshot pinned, so they see
// committed records only and never wait behind a bulk load or delete.
// Records are routed to the snapshot of the shard that owns their tree.
// Tables are resolved lazily — a snapshot taken before the repository's
// first commit simply has no data.
type View struct {
	sns    []*relstore.Snap
	router *shard.Router
}

// ViewOn binds a species view to a relational snapshot (shared with the
// tree and query repositories).
func ViewOn(rs *relstore.Snap) *View {
	return &View{sns: []*relstore.Snap{rs}, router: shard.Single}
}

// ViewOnShards binds a species view to one relational snapshot per shard.
func ViewOnShards(sns []*relstore.Snap, router *shard.Router) *View {
	return &View{sns: sns, router: router}
}

func (v *View) tableFor(tree string) (*relstore.TableView, error) {
	tab, err := v.sns[v.router.Place(tree)].Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// Get fetches one record as of the snapshot.
func (v *View) Get(tree, sp, kind string) ([]byte, error) {
	tab, err := v.tableFor(tree)
	if err != nil {
		return nil, err
	}
	if tab == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoData, key(tree, sp, kind))
	}
	return getRecord(tab, tree, sp, kind)
}

// List returns all records for one species of one tree as of the snapshot.
func (v *View) List(tree, sp string) ([]Record, error) {
	tab, err := v.tableFor(tree)
	if err != nil || tab == nil {
		return nil, err
	}
	return listRecords(tab, tree, sp)
}

// Delete removes one record, reporting whether it existed.
func (r *Repo) Delete(tree, sp, kind string) (bool, error) {
	tab, err := r.tabFor(tree)
	if err != nil {
		return false, err
	}
	return tab.Delete(relstore.Str(key(tree, sp, kind)))
}

// DeleteTree removes all species data of one tree.
func (r *Repo) DeleteTree(tree string) (int, error) {
	tab, err := r.tabFor(tree)
	if err != nil {
		return 0, err
	}
	var keys []string
	lo, hi := prefix(tree)
	err = tab.ScanRange(lo, hi, func(row relstore.Row) (bool, error) {
		c := row.Cols()
		keys = append(keys, string(c.Str()))
		return true, c.Err()
	})
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if _, err := tab.Delete(relstore.Str(k)); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// PutAlignment stores every sequence of an alignment under the given kind
// ("append species data to an existing phylogenetic tree" in the demo's
// loading options). Returns the number of sequences stored.
func (r *Repo) PutAlignment(tree, kind string, aln *seqsim.Alignment) (int, error) {
	for _, name := range aln.Names {
		if err := r.Put(tree, name, kind, aln.Seqs[name]); err != nil {
			return 0, err
		}
	}
	return len(aln.Names), nil
}
