// Package treestore is Crimson's Tree Repository (§2.1): phylogenetic
// trees stored in relational form with the hierarchical labels of package
// core, supporting random access by species name or evolutionary time
// without loading the whole tree into memory — the paper's explicit design
// requirement ("simulation trees are huge, yet the portions retrieved by a
// single query are relatively small ... which argues against using main
// memory techniques").
//
// Layout per tree T:
//
//	nodes_T   — one row per node, keyed by preorder id: structure,
//	            hierarchical-label fields, depth, root distance
//	            (evolutionary time), subtree size; indexed by name and by
//	            root distance.
//	layer_T_k — layer k >= 1 of the decomposition (one row per subtree of
//	            layer k-1).
//	subs_T_k  — per-subtree root and source node for every layer.
//
// plus a shared "trees" catalog table.
package treestore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/relstore"
	"repro/internal/sample"
	"repro/internal/shard"
)

// Errors returned by the repository.
var (
	ErrNoTree     = errors.New("treestore: no such tree")
	ErrTreeExists = errors.New("treestore: tree already exists")
	ErrBadName    = errors.New("treestore: tree name must match [A-Za-z0-9_-]+")
	ErrNoNode     = errors.New("treestore: no such node")
	// ErrBadSample is a sample the tree cannot supply: a size below one or
	// above what there is to draw from, a time no node lies beyond. The
	// request is at fault, not the store.
	ErrBadSample = errors.New("treestore: bad sample request")
)

// Store is the Tree Repository over a relational database.
//
// Concurrency: a Store writes — PrepareLoad, Apply, Drop, Commit — and hands
// out snapshots; a read sees committed state, whole or not at all. Tree
// handles come from a Snapshot only: bound to the last committed epoch, they
// read copy-on-write pages lock-free, from many goroutines at once, and see
// the whole tree exactly as committed even while a writer deletes or reloads
// it. One writer at a time per shard.
//
// Sharding: a Store may span N independent databases (one per shard, each
// its own page file, WAL and epoch machinery). Trees are placed on shards
// by a deterministic hash of the tree name, so every tree's relations live
// wholly on one shard and tree-scoped operations route to exactly one
// database; a snapshot's Trees fans out and merges. Because each shard is
// its own engine, loads of trees on different shards proceed genuinely in
// parallel — the one-writer-at-a-time contract holds per shard, not
// globally.
type Store struct {
	dbs    []*relstore.DB
	router *shard.Router
}

// dbFor returns the shard database that owns the named tree.
func (s *Store) dbFor(name string) *relstore.DB {
	return s.dbs[s.router.Place(name)]
}

// Open opens (creating if needed) a repository in the page file at path.
func Open(path string) (*Store, error) {
	db, err := relstore.OpenDB(path)
	if err != nil {
		return nil, err
	}
	s, err := NewOnDB(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// OpenMem opens an in-memory repository.
func OpenMem() *Store {
	s, err := NewOnDB(relstore.OpenMemDB())
	if err != nil {
		panic("treestore: init mem store: " + err.Error())
	}
	return s
}

// NewOnDB layers a tree repository over an existing relational database,
// so the Tree, Species and Query repositories can share one page file.
func NewOnDB(db *relstore.DB) (*Store, error) {
	return NewOnShards([]*relstore.DB{db}, shard.Single)
}

// NewOnShards layers a tree repository over one database per shard. The
// router decides which shard owns each tree name; it must describe exactly
// len(dbs) shards and must be the same router the databases were written
// under, or reopened trees would be looked up on the wrong shard.
func NewOnShards(dbs []*relstore.DB, router *shard.Router) (*Store, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("treestore: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	s := &Store{dbs: dbs, router: router}
	for i, db := range dbs {
		if err := initShard(db); err != nil {
			return nil, fmt.Errorf("treestore: initializing shard %d: %w", i, err)
		}
	}
	return s, nil
}

// NewOnShardsReplica layers a tree repository over replica databases
// without initializing them: the trees catalog table arrives via
// replication, and the repository resolves every table lazily per
// operation anyway (it caches no handles). After a promote, Reload makes
// sure the catalog table exists (it may not on a never-written primary).
func NewOnShardsReplica(dbs []*relstore.DB, router *shard.Router) (*Store, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("treestore: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	return &Store{dbs: dbs, router: router}, nil
}

// Reload re-initializes every shard (creating the trees catalog table
// where missing). Called after a promote flips the stores writable.
func (s *Store) Reload() error {
	for i, db := range s.dbs {
		if err := initShard(db); err != nil {
			return fmt.Errorf("treestore: initializing shard %d: %w", i, err)
		}
	}
	return nil
}

func initShard(db *relstore.DB) error {
	_, err := db.Table("trees")
	if errors.Is(err, relstore.ErrNoTable) {
		_, err = db.CreateTable(relstore.Schema{
			Name: "trees",
			Columns: []relstore.Column{
				{Name: "name", Type: relstore.TString},
				{Name: "nodes", Type: relstore.TInt},
				{Name: "leaves", Type: relstore.TInt},
				{Name: "f", Type: relstore.TInt},
				{Name: "layers", Type: relstore.TInt},
				{Name: "depth", Type: relstore.TInt},
			},
			Key: "name",
		})
	}
	return err
}

// Commit flushes buffered pages of every shard to disk. The per-shard
// commits are issued concurrently: each shard's WAL fsync proceeds in
// parallel instead of serializing behind the previous shard's.
func (s *Store) Commit() error {
	if len(s.dbs) == 1 {
		if err := s.dbs[0].Commit(); err != nil {
			return fmt.Errorf("treestore: committing shard 0: %w", err)
		}
		return nil
	}
	errs := make([]error, len(s.dbs))
	var wg sync.WaitGroup
	for i, db := range s.dbs {
		wg.Add(1)
		go func(i int, db *relstore.DB) {
			defer wg.Done()
			if err := db.Commit(); err != nil {
				errs[i] = fmt.Errorf("treestore: committing shard %d: %w", i, err)
			}
		}(i, db)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close commits and closes every shard's database. All shards are closed
// even if one fails — a broken shard must not leave the others' WALs
// unflushed — and the failures come back joined.
func (s *Store) Close() error {
	return shard.CloseAll(s.dbs)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

func nodesTable(tree string) string        { return "nodes_" + tree }
func layerTable(tree string, k int) string { return fmt.Sprintf("layer_%s_%d", tree, k) }
func subsTable(tree string, k int) string  { return fmt.Sprintf("subs_%s_%d", tree, k) }

// TreeInfo summarizes a stored tree.
type TreeInfo struct {
	Name   string
	Nodes  int
	Leaves int
	F      int
	Layers int
	Depth  int
}

// Progress receives loading status messages (§3 "Messages about the
// loading status ... are dynamically generated and displayed").
type Progress func(msg string)

// Say formats a status message and forwards it; a nil Progress is silent.
func (p Progress) Say(format string, args ...any) {
	if p != nil {
		p(fmt.Sprintf(format, args...))
	}
}

// LoadMetrics receives per-stage wall times of one load, in nanoseconds.
// Written once, on success; the stages partition the load's work end to
// end: hierarchical index construction, staging (row encoding and the
// sorted runs of every relation — all of the prepare half after the index)
// and insert, which is the apply half alone: the page writes under the
// writer's lock. Waiting — for that lock, for the commit's fsync — is not in
// them.
type LoadMetrics struct {
	IndexNS  int64
	StageNS  int64
	InsertNS int64
}

// LoadOptions tunes the ingest pipeline. The zero value means serial-like
// defaults: Workers <= 0 uses GOMAXPROCS.
type LoadOptions struct {
	// Workers bounds the fan-out of staging: row encoding and the sorts of
	// each relation's runs. Every worker count produces bit-for-bit
	// identical relations; this only trades wall time for CPU.
	Workers int
	// Metrics, when non-nil, receives per-stage timings on success.
	Metrics *LoadMetrics
}

// workerCount resolves the effective fan-out.
func (o LoadOptions) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Load stores the tree under the given name with depth bound f and commits.
// The tree must have preorder IDs (Reindex). The result describes what was
// stored (Info); query it through a Snapshot.
func (s *Store) Load(name string, t *phylo.Tree, f int, progress Progress) (*PreparedLoad, error) {
	return s.LoadOpts(name, t, f, LoadOptions{}, progress)
}

// LoadOpts is Load with pipeline options: staging fans out across
// opts.Workers goroutines and per-stage timings land in opts.Metrics. The
// stored relations are identical to a serial load at every worker count.
//
// It is PrepareLoad, Apply and a commit, back to back. A caller that
// serializes writers with a lock of its own calls the halves itself: prepare
// before taking the lock, Apply and relstore.DB.CommitAsync under it, Wait
// after releasing it — the lock is then held for the page writes only.
func (s *Store) LoadOpts(name string, t *phylo.Tree, f int, opts LoadOptions, progress Progress) (*PreparedLoad, error) {
	p, err := s.PrepareLoad(name, t, f, opts, progress)
	if err != nil {
		return nil, err
	}
	if err := p.Apply(); err != nil {
		return nil, err
	}
	if err := p.db.Commit(); err != nil {
		return nil, err
	}
	p.Committed()
	return p, nil
}

func nodesSchema(tree string) relstore.Schema {
	return relstore.Schema{
		Name: nodesTable(tree),
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "parent", Type: relstore.TInt},
			{Name: "ord", Type: relstore.TInt},
			{Name: "name", Type: relstore.TString},
			{Name: "length", Type: relstore.TFloat},
			{Name: "depth", Type: relstore.TInt},
			{Name: "dist", Type: relstore.TFloat},
			{Name: "sub", Type: relstore.TInt},
			{Name: "lparent", Type: relstore.TInt},
			{Name: "ldepth", Type: relstore.TInt},
			{Name: "leaf", Type: relstore.TBool},
			{Name: "size", Type: relstore.TInt},
		},
		Key: "id",
		Indexes: []relstore.Index{
			{Name: "by_name", Columns: []string{"name"}},
			{Name: "by_dist", Columns: []string{"dist"}},
		},
	}
}

func subsSchema(tree string, k int) relstore.Schema {
	return relstore.Schema{
		Name: subsTable(tree, k),
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "root", Type: relstore.TInt},
			{Name: "source", Type: relstore.TInt},
		},
		Key: "id",
	}
}

func layerSchema(tree string, k int) relstore.Schema {
	return relstore.Schema{
		Name: layerTable(tree, k),
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "parent", Type: relstore.TInt},
			{Name: "ord", Type: relstore.TInt},
			{Name: "sub", Type: relstore.TInt},
			{Name: "lparent", Type: relstore.TInt},
			{Name: "ldepth", Type: relstore.TInt},
		},
		Key: "id",
	}
}

// PreparedLoad is a tree ready to be stored: validated, indexed, and every
// relation staged into the sorted runs its B+trees are built from. Preparing
// touched no database and took no lock; Apply writes it.
type PreparedLoad struct {
	db       *relstore.DB
	info     TreeInfo
	nodes    *relstore.BulkStage
	subs     []*relstore.BulkStage // per layer k >= 0
	layers   []*relstore.BulkStage // per layer k >= 1, at k-1
	opts     LoadOptions
	metrics  LoadMetrics
	progress Progress
}

// Info describes the tree as it will be stored.
func (p *PreparedLoad) Info() TreeInfo { return p.info }

// PrepareLoad does all of a load that needs no database: it validates the
// name and the tree, builds the hierarchical index, and stages the node,
// layer and subtree relations (relstore.StageBulk). It may run concurrently
// with anything, writers on the same shard included. Every reason to reject
// the tree short of its name being taken is found here, so a rejected load
// never dirties a page.
func (s *Store) PrepareLoad(name string, t *phylo.Tree, f int, opts LoadOptions, progress Progress) (*PreparedLoad, error) {
	if !validName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("treestore: invalid tree: %w", err)
	}
	workers := opts.workerCount()

	progress.Say("building hierarchical index (f=%d) over %d nodes", f, t.NumNodes())
	indexStart := time.Now()
	ix, err := core.Build(t, f)
	if err != nil {
		return nil, err
	}

	nodes := t.Nodes()
	// Derived per-node arrays: depth, root distance, subtree size.
	depth := make([]int, len(nodes))
	dist := make([]float64, len(nodes))
	size := make([]int, len(nodes))
	for _, n := range nodes {
		size[n.ID] = 1
		if n.Parent != nil {
			depth[n.ID] = depth[n.Parent.ID] + 1
			dist[n.ID] = dist[n.Parent.ID] + n.Length
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- { // reverse preorder: children first
		if p := nodes[i].Parent; p != nil {
			size[p.ID] += size[nodes[i].ID]
		}
	}
	stageStart := time.Now()
	p := &PreparedLoad{
		db: s.dbFor(name),
		info: TreeInfo{
			Name:   name,
			Nodes:  t.NumNodes(),
			Leaves: t.NumLeaves(),
			F:      f,
			Layers: ix.NumLayers(),
			Depth:  t.MaxDepth(),
		},
		opts:     opts,
		progress: progress,
	}
	p.metrics.IndexNS = stageStart.Sub(indexStart).Nanoseconds()

	// Every relation is staged whole: rows are encoded straight into the
	// stage (no Row is built), keyed, sorted by primary key and by each
	// secondary index, so Apply builds the trees bottom-up
	// (storage.BTree.BulkLoad) instead of one B+tree descent per row. Rows
	// are independent, so staging fans out across the pipeline workers.
	stage := func(schema relstore.Schema, n int, fill func(i int, w *relstore.RowWriter)) (*relstore.BulkStage, error) {
		st, err := relstore.StageBulk(schema, n, workers, fill)
		if err != nil {
			return nil, fmt.Errorf("treestore: staging %d rows of %s: %w", n, schema.Name, err)
		}
		return st, nil
	}
	l0 := ix.Layers[0]
	p.nodes, err = stage(nodesSchema(name), len(nodes), func(i int, w *relstore.RowWriter) {
		n := nodes[i]
		w.Int(int64(n.ID))
		w.Int(int64(l0.Parent[n.ID]))
		w.Int(int64(l0.Ord[n.ID]))
		w.Str(n.Name)
		w.Float(n.Length)
		w.Int(int64(depth[n.ID]))
		w.Float(dist[n.ID])
		w.Int(int64(l0.Sub[n.ID]))
		w.Int(int64(l0.LocalParent[n.ID]))
		w.Int(int64(l0.LocalDepth[n.ID]))
		w.Bool(n.IsLeaf())
		w.Int(int64(size[n.ID]))
	})
	if err != nil {
		return nil, err
	}
	progress.Say("staged %d node rows for bulk load (%d workers)", len(nodes), workers)

	// Higher layers and per-layer subtree tables, staged the same way.
	for k, layer := range ix.Layers {
		subs, err := stage(subsSchema(name, k), len(layer.SubRoot), func(sID int, w *relstore.RowWriter) {
			w.Int(int64(sID))
			w.Int(int64(layer.SubRoot[sID]))
			w.Int(int64(layer.SubSource[sID]))
		})
		if err != nil {
			return nil, err
		}
		p.subs = append(p.subs, subs)
		if k == 0 {
			continue
		}
		lay, err := stage(layerSchema(name, k), len(layer.Parent), func(id int, w *relstore.RowWriter) {
			w.Int(int64(id))
			w.Int(int64(layer.Parent[id]))
			w.Int(int64(layer.Ord[id]))
			w.Int(int64(layer.Sub[id]))
			w.Int(int64(layer.LocalParent[id]))
			w.Int(int64(layer.LocalDepth[id]))
		})
		if err != nil {
			return nil, err
		}
		p.layers = append(p.layers, lay)
	}
	p.metrics.StageNS = time.Since(stageStart).Nanoseconds()
	return p, nil
}

// Apply writes the prepared tree into its shard: the name check, one
// CreateTable and one bulk load per relation, the catalog row. It commits
// nothing — the caller captures the shard's transaction
// (relstore.DB.CommitAsync) when it has written whatever else belongs to
// it. Apply is a mutation like any other: the caller is the shard's one
// writer while it runs.
//
// ErrTreeExists comes back before anything is written. Past that check
// nothing in a load can be rejected any more, only fail (I/O).
func (p *PreparedLoad) Apply() error {
	start := time.Now()
	name := p.info.Name
	trees, err := p.db.Table("trees")
	if err != nil {
		return err
	}
	if _, ok, err := trees.Get(relstore.Str(name)); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrTreeExists, name)
	}
	p.progress.Say("creating relations for tree %q", name)
	create := func(st *relstore.BulkStage) error {
		tab, err := p.db.CreateTable(st.Schema())
		if err != nil {
			return err
		}
		if err := tab.ApplyBulk(st); err != nil {
			return fmt.Errorf("treestore: bulk loading %d rows of %s: %w", st.Len(), tab.Name(), err)
		}
		return nil
	}
	if err := create(p.nodes); err != nil {
		return err
	}
	for k, st := range p.subs {
		if err := create(st); err != nil {
			return err
		}
		if k == 0 {
			continue
		}
		if err := create(p.layers[k-1]); err != nil {
			return err
		}
	}
	p.progress.Say("loaded %d/%d nodes", p.info.Nodes, p.info.Nodes)
	err = trees.Insert(relstore.Tuple{
		relstore.Str(name),
		relstore.Int(int64(p.info.Nodes)),
		relstore.Int(int64(p.info.Leaves)),
		relstore.Int(int64(p.info.F)),
		relstore.Int(int64(p.info.Layers)),
		relstore.Int(int64(p.info.Depth)),
	})
	if err != nil {
		return err
	}
	p.metrics.InsertNS = time.Since(start).Nanoseconds()
	if p.opts.Metrics != nil {
		*p.opts.Metrics = p.metrics
	}
	return nil
}

// Committed tells the progress sink the load is durable. The caller that
// committed the shard calls it once its wait returned.
func (p *PreparedLoad) Committed() {
	p.progress.Say("tree %q committed (%d layers, depth %d)", p.info.Name, p.info.Layers, p.info.Depth)
}

// openTree assembles a tree handle from the relations a snapshot holds.
func openTree(rs *relstore.Snap, name string) (*Tree, error) {
	trees, err := rs.Table("trees")
	if err != nil {
		if errors.Is(err, relstore.ErrNoTable) {
			return nil, fmt.Errorf("%w: %s", ErrNoTree, name)
		}
		return nil, err
	}
	row, ok, err := trees.Get(relstore.Str(name))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTree, name)
	}
	info, err := decodeInfo(row)
	if err != nil {
		return nil, err
	}
	nodeTab, err := rs.Table(nodesTable(name))
	if err != nil {
		return nil, err
	}
	t := &Tree{info: info, nodes: nodeTab}
	for k := 0; k < info.Layers; k++ {
		subTab, err := rs.Table(subsTable(name, k))
		if err != nil {
			return nil, err
		}
		t.subs = append(t.subs, subTab)
		if k > 0 {
			layTab, err := rs.Table(layerTable(name, k))
			if err != nil {
				return nil, err
			}
			t.layers = append(t.layers, layTab)
		}
	}
	return t, nil
}

// decodeInfo is the one reader of a trees catalog row.
func decodeInfo(row relstore.Row) (TreeInfo, error) {
	c := row.Cols()
	info := TreeInfo{
		Name:   string(c.Str()),
		Nodes:  int(c.Int()),
		Leaves: int(c.Int()),
		F:      int(c.Int()),
		Layers: int(c.Int()),
		Depth:  int(c.Int()),
	}
	return info, c.Err()
}

// Snap is a point-in-time read view of the Tree Repository. Each shard's
// view is pinned to that shard's last committed epoch — a per-shard epoch
// vector rather than one global number — so tree handles opened from it
// run every query — Project, LCA, Sample, Frontier, MinimalSpanningClade,
// Export — lock-free against copy-on-write pages: a bulk load or delete
// running concurrently can neither block them nor change what they see.
// Cross-shard reads (Trees) are consistent per shard. Close releases every
// pin so superseded pages can be reclaimed.
type Snap struct {
	sns    []*relstore.Snap
	router *shard.Router
}

// Snapshot pins the last committed state of every shard.
func (s *Store) Snapshot() *Snap {
	sns := make([]*relstore.Snap, len(s.dbs))
	for i, db := range s.dbs {
		sns[i] = db.Snapshot()
	}
	return &Snap{sns: sns, router: s.router}
}

// SnapOn wraps an existing relational snapshot (shared with the species
// and query repositories) as a single-shard tree-repository view.
func SnapOn(rs *relstore.Snap) *Snap {
	return &Snap{sns: []*relstore.Snap{rs}, router: shard.Single}
}

// SnapOnShards wraps one relational snapshot per shard as a
// tree-repository view. The router must match the store the snapshots came
// from.
func SnapOnShards(sns []*relstore.Snap, router *shard.Router) *Snap {
	return &Snap{sns: sns, router: router}
}

// Epoch reports the sum of the per-shard committed epochs: a scalar that
// advances whenever any shard commits. Use Epochs for the full vector.
func (sn *Snap) Epoch() uint64 {
	var sum uint64
	for _, rs := range sn.sns {
		sum += rs.Epoch()
	}
	return sum
}

// Epochs reports the per-shard epoch vector this snapshot pins.
func (sn *Snap) Epochs() []uint64 {
	out := make([]uint64, len(sn.sns))
	for i, rs := range sn.sns {
		out[i] = rs.Epoch()
	}
	return out
}

// Close releases every shard's epoch pin. Safe to call multiple times.
func (sn *Snap) Close() {
	for _, rs := range sn.sns {
		rs.Close()
	}
}

// Tree opens a handle on a stored tree as of its shard's snapshot. The
// handle stays fully readable even if the tree is deleted afterwards: it
// either sees the whole tree or (if the tree was not committed when the
// snapshot was taken) ErrNoTree — never a torn state.
func (sn *Snap) Tree(name string) (*Tree, error) {
	return openTree(sn.sns[sn.router.Place(name)], name)
}

// Trees lists the trees stored as of the snapshot, merged across shards in
// name order.
func (sn *Snap) Trees() ([]TreeInfo, error) {
	return sn.TreesCtx(context.Background())
}

// Delete removes a stored tree and its relations from its shard and
// commits: Drop, then the shard's commit.
func (s *Store) Delete(name string) error {
	if err := s.Drop(name); err != nil {
		return err
	}
	return s.dbFor(name).Commit()
}

// Drop removes a stored tree and its relations from its shard without
// committing; like PreparedLoad.Apply it leaves the capture of the shard's
// transaction to the caller, who is the shard's one writer while it runs.
func (s *Store) Drop(name string) error {
	db := s.dbFor(name)
	trees, err := db.Table("trees")
	if err != nil {
		return err
	}
	row, ok, err := trees.Get(relstore.Str(name))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTree, name)
	}
	info, err := decodeInfo(row)
	if err != nil {
		return err
	}
	layers := info.Layers
	if _, err := trees.Delete(relstore.Str(name)); err != nil {
		return err
	}
	if err := db.DropTable(nodesTable(name)); err != nil {
		return err
	}
	for k := 0; k < layers; k++ {
		if err := db.DropTable(subsTable(name, k)); err != nil {
			return err
		}
		if k > 0 {
			if err := db.DropTable(layerTable(name, k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Node is one stored tree node row.
type Node struct {
	ID          int
	Parent      int // -1 for the root
	Ord         int // 1-based child ordinal
	Name        string
	Length      float64
	Depth       int     // edges from root
	Dist        float64 // evolutionary time from root
	Sub         int     // layer-0 subtree
	LocalParent int
	LocalDepth  int
	Leaf        bool
	Size        int // nodes in the subtree rooted here (preorder range length)
}

// Column positions of the nodes relation, in the order Load's schema lists
// them.
const (
	colID = iota
	colParent
	colOrd
	colName
	colLength
	colDepth
	colDist
	colSub
	colLParent
	colLDepth
	colLeaf
	colSize
)

// What the LCA recursion reads of a row, per relation: the fields it walks
// on. A layer relation is (id, parent, ord, sub, lparent, ldepth), a subs
// relation (id, root, source).
var (
	nodeCellCols  = []int{colSub, colLParent, colLDepth}
	layerCellCols = []int{3, 4, 5}
	subLinkCols   = []int{1, 2}
)

// decodeNode is the one reader of a whole nodes row: the twelve columns in
// schema order, straight from the stored row, the name copied out of the page.
// What only tests a column or two (frontier, leafIDs) reads those with a
// cursor of its own and comes here for the rows it keeps.
func decodeNode(row relstore.Row) (Node, error) {
	c := row.Cols()
	n := Node{
		ID:          int(c.Int()),
		Parent:      int(c.Int()),
		Ord:         int(c.Int()),
		Name:        string(c.Str()),
		Length:      c.Float(),
		Depth:       int(c.Int()),
		Dist:        c.Float(),
		Sub:         int(c.Int()),
		LocalParent: int(c.Int()),
		LocalDepth:  int(c.Int()),
		Leaf:        c.Bool(),
		Size:        int(c.Int()),
	}
	return n, c.Err()
}

// nodeOf is decodeNode for a row a point read returned: outside a scan, which
// does this for its callback, it reports a failure as the cancellation once ctx
// is done — a cancelled reader may have landed on a reclaimed page.
func nodeOf(ctx context.Context, row relstore.Row) (Node, error) {
	n, err := decodeNode(row)
	if err != nil && ctx.Err() != nil {
		return Node{}, ctx.Err()
	}
	return n, err
}

// appendNodes is the scan callback that decodes every row onto *out.
func appendNodes(out *[]Node) func(relstore.Row) (bool, error) {
	return func(row relstore.Row) (bool, error) {
		n, err := decodeNode(row)
		*out = append(*out, n)
		return true, err
	}
}

// Tree is a handle on one stored tree as of a snapshot; every query goes to
// the relational store, through one request-scoped memo (cellMemo): a
// relstore.Reader per relation that holds every storage leaf the request has
// been to, so no leaf is descended to twice in a request and a row is decoded
// — the three integers the walk needs, or the whole Node — only when the walk
// asks for it. Names resolve in one batched index sweep whose primary leaves
// the walk then finds already held. Scans read their rows where they lie
// (relstore.Row): a clade or an export decodes each row once, straight into a
// Node, and a sample tests a column or two of the rows it passes and decodes
// the ones it returns. A Tree handle is safe for concurrent use
// by multiple goroutines: all methods are read-only, take no lock, share no
// memo, and are immune to concurrent loads and deletes. It is valid until its
// snapshot closes.
type Tree struct {
	info   TreeInfo
	nodes  *relstore.TableView
	layers []*relstore.TableView // layer 1.. (index 0 = layer 1)
	subs   []*relstore.TableView // layer 0..
}

// Info returns the tree's summary.
func (t *Tree) Info() TreeInfo { return t.info }

// NodeCtx fetches a node by preorder id, attributing engine counters to the
// request span carried by ctx, if any.
func (t *Tree) NodeCtx(ctx context.Context, id int) (Node, error) {
	row, ok, err := t.nodes.GetCtx(ctx, relstore.Int(int64(id)))
	if err != nil {
		return Node{}, err
	}
	if !ok {
		return Node{}, fmt.Errorf("%w: id %d", ErrNoNode, id)
	}
	return nodeOf(ctx, row)
}

// NodeByNameCtx fetches a node by species name under ctx.
func (t *Tree) NodeByNameCtx(ctx context.Context, name string) (Node, error) {
	rows, err := t.NodesByNameCtx(ctx, []string{name})
	if err != nil {
		return Node{}, err
	}
	return rows[0], nil
}

// NodesByNameCtx fetches the nodes with the given species names under ctx,
// in argument order (a name given twice comes back twice). All the names
// are resolved in one sorted sweep of the by_name index and their rows read
// in one batched pass over the nodes relation, so k names cost one descent
// per distinct leaf touched in either, not two descents each. A name no
// node carries is an ErrNoNode error naming it.
func (t *Tree) NodesByNameCtx(ctx context.Context, names []string) ([]Node, error) {
	return t.nodesByName(ctx, newCellMemo(t), names)
}

// nodesByName is NodesByNameCtx through the request memo, which keeps the
// nodes leaves the rows were read from for the walk that follows.
func (t *Tree) nodesByName(ctx context.Context, memo *cellMemo, names []string) ([]Node, error) {
	vals := make([]relstore.Value, len(names))
	for i, name := range names {
		vals[i] = relstore.Str(name)
	}
	rows, found, err := memo.nodes.IndexGetBatchCtx(ctx, "by_name", vals)
	if err != nil {
		return nil, err
	}
	out := make([]Node, len(names))
	for i, row := range rows {
		if !found[i] {
			return nil, fmt.Errorf("%w: name %q", ErrNoNode, names[i])
		}
		if out[i], err = nodeOf(ctx, row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ChildrenCtx lists a node's children in ordinal order under ctx, walking
// preorder ids through one request memo: the first child is id+1, the next
// sibling starts where a child's subtree ends (child.ID + child.Size), and
// the walk stops at id + Size. An id the tree does not have has no children.
func (t *Tree) ChildrenCtx(ctx context.Context, id int) ([]Node, error) {
	memo := newCellMemo(t)
	n, err := t.nodeRow(ctx, memo, id)
	if errors.Is(err, ErrNoNode) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Node
	for c := id + 1; c < id+n.Size; c += out[len(out)-1].Size {
		kid, err := t.nodeRow(ctx, memo, c)
		if err != nil {
			return nil, err
		}
		if kid.Size < 1 {
			return nil, fmt.Errorf("treestore: node %d has subtree size %d", c, kid.Size)
		}
		out = append(out, kid)
	}
	return out, nil
}

// layerCell is the subset of fields the LCA recursion needs.
type layerCell struct {
	sub     int
	lparent int
	ldepth  int
}

// memoMaxLeaves bounds the storage leaves a request memo holds, over all its
// relations: 1 024 of them are 4 MiB of page images, most of which the buffer
// pool holds anyway. Past it the memo keeps answering — from what it holds,
// and by descent — and stops retaining, so one adversarial request cannot pin
// memory without limit.
const memoMaxLeaves = 1 << 10

// subLink is one row of a subs relation: the subtree's root node and the
// source node it was split off from (-1 for the subtree holding the layer
// root).
type subLink struct{ root, source int }

// cellMemo is what one request remembers of the relations it reads: one
// relstore.Reader per relation — nodes, and layer_k and subs_k of every
// layer — each holding the storage leaves the request has descended to.
// Project and MinimalSpanningClade run the LCA recursion over many pairs
// whose ancestor chains overlap heavily, and a local climb's next cell is
// most often in the leaf of the last; the held leaves turn those reads into
// binary searches and decode nothing but the row asked for. It is
// request-scoped — created per call, never shared across requests, gone with
// it — and used from a single goroutine, so it needs no locking.
type cellMemo struct {
	budget int // leaves the readers may still retain, of memoMaxLeaves
	nodes  relstore.Reader
	layers []relstore.Reader // layer 1.. (index 0 = layer 1)
	subs   []relstore.Reader // layer 0..
	ints   [3]int64          // scratch: the columns of the row being read
}

func newCellMemo(t *Tree) *cellMemo {
	m := &cellMemo{
		budget: memoMaxLeaves,
		layers: make([]relstore.Reader, len(t.layers)),
		subs:   make([]relstore.Reader, len(t.subs)),
	}
	m.nodes = t.nodes.Reader(&m.budget)
	for k, tab := range t.layers {
		m.layers[k] = tab.Reader(&m.budget)
	}
	for k, tab := range t.subs {
		m.subs[k] = tab.Reader(&m.budget)
	}
	return m
}

// cell fetches the LCA recursion fields of node id at layer k, checking
// ctx first: the recursion's local climbs are chains of point reads (at
// most 2f per layer), so this check is what makes an LCA (and everything
// built on it — Project, pattern match, clade) abort promptly on
// cancellation. The read goes through the layer's reader: three integers
// taken in place from the one row — of the layer relation or, at layer 0, of
// the wide nodes relation, whose other nine columns are passed over — and a
// descent only when the request has not been to the row's leaf yet.
func (t *Tree) cell(ctx context.Context, memo *cellMemo, k, id int) (layerCell, error) {
	if err := ctx.Err(); err != nil {
		return layerCell{}, err
	}
	r, cols := &memo.nodes, nodeCellCols
	switch {
	case k > len(memo.layers):
		// Only corrupt relations get here: the top layer's nodes share one
		// subtree, so a sound walk never climbs past it.
		return layerCell{}, fmt.Errorf("%w: layer %d beyond the handle's %d", ErrNoNode, k, len(memo.layers))
	case k > 0:
		r, cols = &memo.layers[k-1], layerCellCols
	}
	ok, err := r.Ints(ctx, relstore.Int(int64(id)), cols, memo.ints[:])
	if err != nil {
		return layerCell{}, err
	}
	if !ok {
		if k == 0 {
			return layerCell{}, fmt.Errorf("%w: id %d", ErrNoNode, id)
		}
		return layerCell{}, fmt.Errorf("%w: layer %d id %d", ErrNoNode, k, id)
	}
	return layerCell{sub: int(memo.ints[0]), lparent: int(memo.ints[1]), ldepth: int(memo.ints[2])}, nil
}

// nodeRow fetches a full layer-0 node row through the request memo: decoded
// from the leaf the request holds when it has been there — for the row's
// cell, or a neighbor's — and by one descent otherwise.
func (t *Tree) nodeRow(ctx context.Context, memo *cellMemo, id int) (Node, error) {
	row, ok, err := memo.nodes.Row(ctx, relstore.Int(int64(id)))
	if err != nil {
		return Node{}, err
	}
	if !ok {
		return Node{}, fmt.Errorf("%w: id %d", ErrNoNode, id)
	}
	return nodeOf(ctx, row)
}

// subLink returns the root and source node of subtree s at layer k through
// the request memo. The recursion reads at most two of these per layer — the
// two child subtrees through which the sides enter the LCA's subtree — and
// the narrow subs relation packs hundreds to a leaf, so the pairs that
// follow in the same request mostly find theirs held.
func (t *Tree) subLink(ctx context.Context, memo *cellMemo, k, s int) (subLink, error) {
	ok, err := memo.subs[k].Ints(ctx, relstore.Int(int64(s)), subLinkCols, memo.ints[:])
	if err != nil {
		return subLink{}, err
	}
	if !ok {
		return subLink{}, fmt.Errorf("%w: layer %d subtree %d", ErrNoNode, k, s)
	}
	return subLink{root: int(memo.ints[0]), source: int(memo.ints[1])}, nil
}

// LCACtx answers least-common-ancestor queries directly against the stored
// relations under ctx, using the same layered recursion as core.Index but
// fetching only the rows the query touches: per layer at most 2f cells and
// two subs rows, whatever the tree's depth.
func (t *Tree) LCACtx(ctx context.Context, a, b int) (int, error) {
	return t.lca(ctx, newCellMemo(t), a, b)
}

// LCANamesCtx returns the least common ancestor of two species, by name,
// under ctx. The names, the walk and the answer's row go through one memo:
// the leaves the name lookup read are the walk's end leaves, and the answer
// is mostly decoded from a leaf the walk has been to.
func (t *Tree) LCANamesCtx(ctx context.Context, a, b string) (Node, error) {
	memo := newCellMemo(t)
	ends, err := t.nodesByName(ctx, memo, []string{a, b})
	if err != nil {
		return Node{}, err
	}
	l, err := t.lca(ctx, memo, ends[0].ID, ends[1].ID)
	if err != nil {
		return Node{}, err
	}
	return t.nodeRow(ctx, memo, l)
}

// lca is the layer-0 LCA of a and b through the request memo.
func (t *Tree) lca(ctx context.Context, memo *cellMemo, a, b int) (int, error) {
	l, _, _, err := t.lcaAt(ctx, memo, 0, a, b)
	return l, err
}

// lcaAt returns the LCA of a and b in layer k's tree and the child of that
// LCA on each side's path (-1 when the side is the LCA itself). Subtree ids
// of layer k are node ids of layer k+1, so the child subtree the upper
// layer reports for a side names the one subs row through which that side
// enters the LCA's subtree: its source is the side's ancestor there and its
// root the child on the path. No source chain is walked.
//
// It is core.Index's lcaAt over the request memo instead of slices, kept as a
// second copy on purpose: making the in-memory walk generic over a cell
// source cost it 1.75× (2.4× through a plain interface).
// TestLCADifferentialNaive holds the two to phylo.LCA on one table of tree
// shapes.
func (t *Tree) lcaAt(ctx context.Context, memo *cellMemo, k, a, b int) (lca, childA, childB int, err error) {
	ca, err := t.cell(ctx, memo, k, a)
	if err != nil {
		return 0, 0, 0, err
	}
	cb, err := t.cell(ctx, memo, k, b)
	if err != nil {
		return 0, 0, 0, err
	}
	pa, pb := -1, -1
	if ca.sub != cb.sub {
		_, sa, sb, err := t.lcaAt(ctx, memo, k+1, ca.sub, cb.sub)
		if err != nil {
			return 0, 0, 0, err
		}
		if sa >= 0 {
			if a, pa, ca, err = t.enter(ctx, memo, k, sa); err != nil {
				return 0, 0, 0, err
			}
		}
		if sb >= 0 {
			if b, pb, cb, err = t.enter(ctx, memo, k, sb); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	return t.lcaLocal(ctx, memo, k, a, pa, ca, b, pb, cb)
}

// enter steps from subtree s of layer k into its parent subtree: the source
// node of s, the child of that node on the way (the root of s), and the
// source's cell.
func (t *Tree) enter(ctx context.Context, memo *cellMemo, k, s int) (id, child int, c layerCell, err error) {
	link, err := t.subLink(ctx, memo, k, s)
	if err != nil {
		return 0, 0, layerCell{}, err
	}
	c, err = t.cell(ctx, memo, k, link.source)
	return link.source, link.root, c, err
}

// lcaLocal is the bounded parent climb of two nodes sharing a subtree. pa
// and pb are the children of a and b already known to lie on the paths (-1
// for none); it returns the LCA and the child of it on each path. Should
// corrupt relations hand it two nodes that share no subtree, the climb runs
// off a subtree root (lparent -1, a row no relation holds) and ends in
// ErrNoNode after at most 2f steps.
func (t *Tree) lcaLocal(ctx context.Context, memo *cellMemo, k, a, pa int, ca layerCell, b, pb int, cb layerCell) (int, int, int, error) {
	var err error
	for ca.ldepth > cb.ldepth {
		a, pa = ca.lparent, a
		if ca, err = t.cell(ctx, memo, k, a); err != nil {
			return 0, 0, 0, err
		}
	}
	for cb.ldepth > ca.ldepth {
		b, pb = cb.lparent, b
		if cb, err = t.cell(ctx, memo, k, b); err != nil {
			return 0, 0, 0, err
		}
	}
	for a != b {
		a, pa = ca.lparent, a
		if ca, err = t.cell(ctx, memo, k, a); err != nil {
			return 0, 0, 0, err
		}
		b, pb = cb.lparent, b
		if cb, err = t.cell(ctx, memo, k, b); err != nil {
			return 0, 0, 0, err
		}
	}
	return a, pa, pb, nil
}

// idSet is a set of node ids of one tree, a bit each; add wants an id in it.
type idSet []uint64

func (s idSet) in(id int) bool  { return id >= 0 && id>>6 < len(s) }
func (s idSet) has(id int) bool { return s.in(id) && s[id>>6]&(1<<(id&63)) != 0 }
func (s idSet) add(id int)      { s[id>>6] |= 1 << (id & 63) }

// FrontierCtx returns the maximal nodes whose root distance exceeds time
// under ctx, found with one range scan on the by_dist index — no full-tree
// traversal and no further reads: the scan yields every node beyond time,
// so a candidate is maximal exactly when its parent is not a candidate. Of a
// candidate it reads id, parent and distance, in place; edge lengths are >= 0
// (Load validates them), so a parent comes by before its children in (dist,
// id) order and only the maximal candidates are decoded into Nodes.
func (t *Tree) FrontierCtx(ctx context.Context, time float64) ([]Node, error) {
	beyond := make(idSet, (t.info.Nodes+63)/64)
	var out []Node
	err := t.nodes.IndexRangeCtx(ctx, "by_dist", relstore.Float(time), relstore.Value{}, func(row relstore.Row) (bool, error) {
		c := row.Cols()
		id, parent := int(c.Int()), int(c.Int())
		c.Skip(colDist - colOrd)
		dist := c.Float()
		if err := c.Err(); err != nil || dist <= time {
			return err == nil, err
		}
		if !beyond.in(id) {
			return false, fmt.Errorf("treestore: frontier: node id %d out of range", id)
		}
		if beyond.add(id); beyond.has(parent) {
			return true, nil
		}
		n, err := decodeNode(row)
		out = append(out, n)
		return true, err
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b Node) int { return a.ID - b.ID })
	return out, nil
}

// LeavesUnderCtx returns the leaves in the clade rooted at id under ctx,
// using the preorder-range property (descendants occupy ids
// [id, id+size)).
func (t *Tree) LeavesUnderCtx(ctx context.Context, id int) ([]Node, error) {
	memo := newCellMemo(t)
	n, err := t.nodeRow(ctx, memo, id)
	if err != nil {
		return nil, err
	}
	ids, err := t.leafIDs(ctx, n, nil)
	if err != nil {
		return nil, err
	}
	return t.fetchNodes(ctx, memo, ids)
}

// leafIDs appends the ids of the leaves in the clade rooted at n, ascending:
// a leaf is its own clade, an interior node one range scan that reads the id
// and the leaf flag of each row. The callers fetch the rows they keep.
func (t *Tree) leafIDs(ctx context.Context, n Node, ids []int) ([]int, error) {
	if n.Leaf {
		return append(ids, n.ID), nil
	}
	err := t.nodes.ScanRangeCtx(ctx, relstore.Int(int64(n.ID)), relstore.Int(int64(n.ID+n.Size)), func(row relstore.Row) (bool, error) {
		id, leaf, err := idAndLeaf(row)
		if leaf {
			ids = append(ids, id)
		}
		return true, err
	})
	return ids, err
}

// idAndLeaf reads the id and the leaf flag of a nodes row in place.
func idAndLeaf(row relstore.Row) (id int, leaf bool, err error) {
	c := row.Cols()
	id = int(c.Int())
	c.Skip(colLeaf - colParent)
	leaf = c.Bool()
	return id, leaf, c.Err()
}

// MinimalSpanningCladeCtx returns all nodes of the clade rooted at the LCA
// of the given nodes under ctx (§2.2: "the set of nodes in the tree rooted
// by their least common ancestor").
func (t *Tree) MinimalSpanningCladeCtx(ctx context.Context, ids []int) ([]Node, error) {
	return t.clade(ctx, newCellMemo(t), ids)
}

// CladeNamesCtx is MinimalSpanningCladeCtx over species names: the rows the
// name lookup read are not read again by id.
func (t *Tree) CladeNamesCtx(ctx context.Context, names []string) ([]Node, error) {
	memo := newCellMemo(t)
	rows, err := t.nodesByName(ctx, memo, names)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(rows))
	for i, n := range rows {
		ids[i] = n.ID
	}
	return t.clade(ctx, memo, ids)
}

// clade is MinimalSpanningCladeCtx through the request memo.
func (t *Tree) clade(ctx context.Context, memo *cellMemo, ids []int) ([]Node, error) {
	if len(ids) == 0 {
		return nil, errors.New("treestore: empty node set")
	}
	l := ids[0]
	var err error
	for _, id := range ids[1:] {
		if l, err = t.lca(ctx, memo, l, id); err != nil {
			return nil, err
		}
	}
	root, err := t.nodeRow(ctx, memo, l)
	if err != nil {
		return nil, err
	}
	var out []Node
	if root.Size > 0 && root.Size <= t.info.Nodes {
		out = make([]Node, 0, root.Size)
	}
	err = t.nodes.ScanRangeCtx(ctx, relstore.Int(int64(l)), relstore.Int(int64(l+root.Size)), appendNodes(&out))
	return out, err
}

// SampleUniformCtx draws k distinct random leaves under ctx using
// rejection sampling on the id space (leaves are a large fraction of any
// phylogeny), falling back to a scan when k approaches the leaf count. A draw
// is judged on its leaf flag alone; only the leaves kept are decoded.
func (t *Tree) SampleUniformCtx(ctx context.Context, k int, r *rand.Rand) ([]Node, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: sample size must be >= 1", ErrBadSample)
	}
	if k > t.info.Leaves {
		return nil, fmt.Errorf("%w: sample %d > %d leaves", ErrBadSample, k, t.info.Leaves)
	}
	memo := newCellMemo(t)
	if 2*k > t.info.Leaves {
		leaves, err := t.leafIDs(ctx, Node{Size: t.info.Nodes, Leaf: t.info.Nodes == 1}, nil)
		if err != nil {
			return nil, err
		}
		return t.fetchNodes(ctx, memo, sample.Pick(leaves, k, r))
	}
	picked := make(map[int]bool, k)
	out := make([]Node, 0, k)
	for len(out) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := r.Intn(t.info.Nodes)
		if picked[id] {
			continue
		}
		row, ok, err := memo.nodes.Row(ctx, relstore.Int(int64(id)))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrNoNode, id)
		}
		if _, leaf, err := idAndLeaf(row); err != nil {
			return nil, err
		} else if !leaf {
			continue
		}
		n, err := nodeOf(ctx, row)
		if err != nil {
			return nil, err
		}
		picked[id] = true
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b Node) int { return a.ID - b.ID })
	return out, nil
}

// SampleWithTimeCtx implements the paper's time-constrained sampling
// against the stored tree under ctx: frontier via the distance index, then
// per-frontier quotas with remainder redistribution. The draws run on leaf
// ids; only the k drawn are fetched and decoded.
func (t *Tree) SampleWithTimeCtx(ctx context.Context, time float64, k int, r *rand.Rand) ([]Node, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: sample size must be >= 1", ErrBadSample)
	}
	frontierCtx, frontierSpan := obs.StartSpan(ctx, "frontier")
	frontier, err := t.FrontierCtx(frontierCtx, time)
	frontierSpan.End()
	if err != nil {
		return nil, err
	}
	if len(frontier) == 0 {
		return nil, fmt.Errorf("%w: no nodes beyond time %g", ErrBadSample, time)
	}
	leavesCtx, leavesSpan := obs.StartSpan(ctx, "collect_leaves")
	// Every group is appended to one slice. A later append writes past a group
	// or into a new array, so a group taken as the tail just read stays put.
	var leaves []int
	groups := make([][]int, len(frontier))
	for i, fn := range frontier {
		start := len(leaves)
		if leaves, err = t.leafIDs(leavesCtx, fn, leaves); err != nil {
			leavesSpan.End()
			return nil, err
		}
		groups[i] = leaves[start:]
	}
	leavesSpan.End()
	if len(leaves) < k {
		return nil, fmt.Errorf("%w: only %d leaves beyond time %g < %d", ErrBadSample, len(leaves), time, k)
	}
	picked := sample.Draw(groups, k, r)
	fetchCtx, fetchSpan := obs.StartSpan(ctx, "fetch_nodes")
	defer fetchSpan.End()
	return t.fetchNodes(fetchCtx, newCellMemo(t), picked)
}

// fetchNodes fetches the rows of the distinct ids in preorder (id) order
// through the request memo: one descent per distinct storage leaf they fall
// in, and those leaves are held for the LCA walk that follows. Any missing
// id is an ErrNoNode error.
func (t *Tree) fetchNodes(ctx context.Context, memo *cellMemo, ids []int) ([]Node, error) {
	want := slices.Clone(ids)
	slices.Sort(want)
	want = slices.Compact(want)
	rows := make([]Node, len(want))
	for i, id := range want {
		var err error
		if rows[i], err = t.nodeRow(ctx, memo, id); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ProjectCtx computes the tree projection over the given node ids under
// ctx, directly against the store: ids are sorted (preorder), and the
// rightmost-path insertion runs on stored LCA/depth/distance lookups.
func (t *Tree) ProjectCtx(ctx context.Context, ids []int) (*phylo.Tree, error) {
	if len(ids) == 0 {
		return nil, errors.New("treestore: empty projection set")
	}
	memo := newCellMemo(t)
	fetchCtx, fetchSpan := obs.StartSpan(ctx, "fetch_nodes")
	rows, err := t.fetchNodes(fetchCtx, memo, ids)
	fetchSpan.End()
	if err != nil {
		return nil, err
	}
	return t.project(ctx, memo, rows)
}

// project is ProjectCtx over rows already fetched through memo, distinct and
// in preorder (id) order: project.Build over the rows, with the LCA answered by the stored walk and its row read
// through the same memo. A singleton projection walks nothing and opens no
// lca_walk span.
func (t *Tree) project(ctx context.Context, memo *cellMemo, rows []Node) (*phylo.Tree, error) {
	sel := make([]project.Vertex, len(rows))
	for i, n := range rows {
		sel[i] = vertexOf(n)
	}
	if len(sel) == 1 {
		return project.Build(sel, nil)
	}
	lcaCtx, lcaSpan := obs.StartSpan(ctx, "lca_walk")
	defer lcaSpan.End()
	// Consecutive pairs share long ancestor chains: the memo, which holds the
	// leaves the rows were fetched from, answers the repeat chain reads in place.
	return project.Build(sel, func(a, b project.Vertex) (project.Vertex, error) {
		id, err := t.lca(lcaCtx, memo, a.ID, b.ID)
		if err != nil {
			return project.Vertex{}, err
		}
		n, err := t.nodeRow(lcaCtx, memo, id)
		return vertexOf(n), err
	})
}

func vertexOf(n Node) project.Vertex {
	return project.Vertex{ID: n.ID, Depth: n.Depth, Dist: n.Dist, Name: n.Name}
}

// ExportCtx rebuilds the complete in-memory tree from the stored relation
// under ctx — the inverse of Load. One primary-key scan; used to hand a
// stored gold tree to in-memory tooling (e.g. the Benchmark Manager). For
// serialization, prefer ExportNewickTo, which streams the Newick text in
// bounded memory instead of materializing the tree.
func (t *Tree) ExportCtx(ctx context.Context) (*phylo.Tree, error) {
	nodes := make([]*phylo.Node, t.info.Nodes)
	err := t.nodes.ScanCtx(ctx, func(row relstore.Row) (bool, error) {
		n, err := decodeNode(row)
		if err != nil {
			return false, err
		}
		if n.ID < 0 || n.ID >= len(nodes) {
			return false, fmt.Errorf("treestore: export: node id %d out of range", n.ID)
		}
		pn := &phylo.Node{ID: n.ID, Name: n.Name, Length: n.Length}
		nodes[n.ID] = pn
		if n.Parent >= 0 {
			parent := nodes[n.Parent]
			if parent == nil {
				return false, fmt.Errorf("treestore: export: node %d scanned before parent %d", n.ID, n.Parent)
			}
			parent.AddChild(pn)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 || nodes[0] == nil {
		return nil, fmt.Errorf("%w: export found no root", ErrNoNode)
	}
	out := phylo.New(nodes[0])
	out.Reindex()
	return out, nil
}

// ProjectNamesCtx projects over species names under ctx. The rows the
// name lookup read are the rows the projection runs on, and the leaves it
// read them from are the ones the walk starts in: nothing is fetched a second
// time by id.
func (t *Tree) ProjectNamesCtx(ctx context.Context, names []string) (*phylo.Tree, error) {
	if len(names) == 0 {
		return nil, errors.New("treestore: empty projection set")
	}
	memo := newCellMemo(t)
	resolveCtx, resolveSpan := obs.StartSpan(ctx, "resolve_names")
	rows, err := t.nodesByName(resolveCtx, memo, names)
	resolveSpan.End()
	if err != nil {
		return nil, err
	}
	slices.SortFunc(rows, func(a, b Node) int { return a.ID - b.ID })
	rows = slices.CompactFunc(rows, func(a, b Node) bool { return a.ID == b.ID })
	return t.project(ctx, memo, rows)
}
