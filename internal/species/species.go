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
	router *shard.Router
}

// dataTable returns the writer's handle on the shard's table, creating it
// where missing: one B+tree, keyed tree/species/kind. Tables created with
// by_species and by_tree keep them, kept consistent by the writer and read
// by nothing.
func dataTable(db *relstore.DB) (*relstore.Table, error) {
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

// NewOnShards layers the repository over one database per shard, using the
// same router as the tree repository so species data lands on its tree's
// shard. A writable shard gets its table here; a replica's arrives through
// replication, and the writer finds it (or creates it) at its first write
// after a promote.
func NewOnShards(dbs []*relstore.DB, router *shard.Router) (*Repo, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("species: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	for i, db := range dbs {
		if db.Store().IsReplica() {
			continue
		}
		if _, err := dataTable(db); err != nil {
			return nil, fmt.Errorf("species: initializing shard %d: %w", i, err)
		}
	}
	return &Repo{dbs: dbs, router: router}, nil
}

// tabFor returns the writer's handle on the shard table that owns records of
// the given tree.
func (r *Repo) tabFor(tree string) (*relstore.Table, error) {
	return dataTable(r.dbs[r.router.Place(tree)])
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

func listRecords(tab *relstore.TableView, tree, sp string) ([]record, error) {
	var out []record
	lo, hi := prefix(tree, sp)
	err := tab.ScanRangeCtx(context.Background(), lo, hi, func(row relstore.Row) (bool, error) {
		vals, err := row.Tuple()
		if err != nil {
			return false, err
		}
		out = append(out, record{
			Tree:    vals[1].Text(),
			Species: vals[2].Text(),
			Kind:    vals[3].Text(),
			Data:    vals[4].Bytes(),
		})
		return true, nil
	})
	return out, err
}

// record is one stored species-data item.
type record struct {
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
func (v *View) List(tree, sp string) ([]record, error) {
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
