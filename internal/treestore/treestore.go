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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
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

// NewOnShards layers a tree repository over one database per shard. The
// router decides which shard owns each tree name; it must describe exactly
// len(dbs) shards and must be the same router the databases were written
// under, or reopened trees would be looked up on the wrong shard. A
// writable shard gets its trees catalog table here; a replica's arrives
// through replication, and its writers find it (or create it, on a
// never-written primary) at their first write after a promote.
func NewOnShards(dbs []*relstore.DB, router *shard.Router) (*Store, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("treestore: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	for i, db := range dbs {
		if db.Store().IsReplica() {
			continue
		}
		if _, err := treesTable(db); err != nil {
			return nil, fmt.Errorf("treestore: initializing shard %d: %w", i, err)
		}
	}
	return &Store{dbs: dbs, router: router}, nil
}

// treesTable returns the writer's handle on the shard's trees catalog
// table, creating the table where missing.
func treesTable(db *relstore.DB) (*relstore.Table, error) {
	tab, err := db.Table("trees")
	if errors.Is(err, relstore.ErrNoTable) {
		tab, err = db.CreateTable(relstore.Schema{
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
	return tab, err
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
func layerTable(tree string, k int) string { return "layer_" + tree + "_" + strconv.Itoa(k) }
func subsTable(tree string, k int) string  { return "subs_" + tree + "_" + strconv.Itoa(k) }

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

// LoadOpts is Load with pipeline options: staging fans out across
// opts.Workers goroutines and per-stage timings land in opts.Metrics. The
// stored relations are identical to a serial load at every worker count.
//
// It is PrepareLoad, Apply and a commit, back to back. A caller that
// serializes writers with a lock of its own calls the halves itself: prepare
// before taking the lock, Apply and relstore.DB.CommitAsync under it, Report
// and Wait after releasing it — the lock is then held for the page writes
// only, and no progress line is said under it.
func (s *Store) LoadOpts(name string, t *phylo.Tree, f int, opts LoadOptions, progress Progress) (*PreparedLoad, error) {
	p, err := s.PrepareLoad(name, t, f, opts, progress)
	if err != nil {
		return nil, err
	}
	err = p.Apply()
	p.Report()
	if err != nil {
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
	held     []string // what Apply had to say, for Report
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
	// Derived per-node arrays: depth, root distance, subtree size; and the
	// catalog's leaf count and maximum depth, from the same pass. Depths and
	// sizes are at most the node count, which an int32 holds for any tree
	// that fits in memory.
	depth := make([]int32, len(nodes))
	dist := make([]float64, len(nodes))
	size := make([]int32, len(nodes))
	leaves, maxDepth := 0, 0
	for _, n := range nodes {
		size[n.ID] = 1
		if n.Parent != nil {
			depth[n.ID] = depth[n.Parent.ID] + 1
			dist[n.ID] = dist[n.Parent.ID] + n.Length
			maxDepth = max(maxDepth, int(depth[n.ID]))
		}
		if n.IsLeaf() {
			leaves++
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
			Nodes:  len(nodes),
			Leaves: leaves,
			F:      f,
			Layers: ix.NumLayers(),
			Depth:  maxDepth,
		},
		opts:     opts,
		progress: progress,
	}
	p.metrics.IndexNS = stageStart.Sub(indexStart).Nanoseconds()

	// Every relation is staged whole: rows are encoded straight into the
	// stage (no Row is built), keyed, ordered by primary key and by each
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
// writer while it runs. So it says nothing: its progress lines wait for
// Report, which the caller calls once it holds no lock, and a progress sink
// may call back into the repository — commit it, say — without deadlock.
//
// ErrTreeExists comes back before anything is written. Past that check
// nothing in a load can be rejected any more, only fail (I/O).
func (p *PreparedLoad) Apply() error {
	start := time.Now()
	name := p.info.Name
	trees, err := treesTable(p.db)
	if err != nil {
		return err
	}
	if _, ok, err := trees.Get(relstore.Str(name)); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrTreeExists, name)
	}
	p.hold("creating relations for tree %q", name)
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
	p.hold("loaded %d/%d nodes", p.info.Nodes, p.info.Nodes)
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

// hold keeps a progress line of Apply's for Report.
func (p *PreparedLoad) hold(format string, args ...any) {
	if p.progress != nil {
		p.held = append(p.held, fmt.Sprintf(format, args...))
	}
}

// Report says the progress lines Apply held back, in order, once. The
// caller calls it after Apply, failed or not, with its writer mutex
// released.
func (p *PreparedLoad) Report() {
	for _, line := range p.held {
		p.progress(line)
	}
	p.held = nil
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
	// The relations are looked up by the parts of the names nodesTable,
	// subsTable and layerTable spell (strconv.Itoa of a small int is a
	// constant), so an open builds no string.
	nodeTab, err := rs.Table("nodes_", name)
	if err != nil {
		return nil, err
	}
	t := &Tree{info: info, nodes: nodeTab}
	if info.Layers > 0 {
		views := make([]*relstore.TableView, 0, 2*info.Layers-1)
		t.subs, t.layers = views[:0:info.Layers], views[info.Layers:info.Layers]
	}
	for k := 0; k < info.Layers; k++ {
		subTab, err := rs.Table("subs_", name, "_", strconv.Itoa(k))
		if err != nil {
			return nil, err
		}
		t.subs = append(t.subs, subTab)
		if k > 0 {
			layTab, err := rs.Table("layer_", name, "_", strconv.Itoa(k))
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

// SnapOnShards wraps one relational snapshot per shard as a
// tree-repository view. The router must match the store the snapshots came
// from.
func SnapOnShards(sns []*relstore.Snap, router *shard.Router) *Snap {
	return &Snap{sns: sns, router: router}
}

// Tree opens a handle on a stored tree as of its shard's snapshot. The
// handle stays fully readable even if the tree is deleted afterwards: it
// either sees the whole tree or (if the tree was not committed when the
// snapshot was taken) ErrNoTree — never a torn state.
func (sn *Snap) Tree(name string) (*Tree, error) {
	return openTree(sn.sns[sn.router.Place(name)], name)
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
	trees, err := treesTable(db)
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

// What the LCA walk reads of a row, per relation: the fields it walks on —
// of a nodes row the parent, subtree, local depth and the subtree size that
// gives the node's preorder interval. A layer relation is (id, parent, ord,
// sub, lparent, ldepth), a subs relation (id, root, source).
var (
	nodeCellCols  = []int{colParent, colSub, colLDepth, colSize}
	layerCellCols = []int{3, 4, 5}
	subLinkCols   = []int{1, 2}
	idCols        = []int{colID}
	idParentCols  = []int{colID, colParent}
)

// decodeNode is the one reader of a whole nodes row: the twelve columns in
// schema order, straight from the stored row, the name copied out of the page.
// What only tests a column or three (cladeOf: the frontier's clade roots,
// the uniform draws; cladeLeaves: a clade's rows) reads those in place and
// comes here for the rows it keeps.
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
// — the integers the walk needs, or the whole Node — only when the walk asks
// for it. One name resolves in one index seek, many in one batched index
// sweep whose primary leaves the walk then finds already held. Scans read
// their rows where they lie
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

// Version names the incarnation of the tree the handle reads: its nodes
// relation's creation stamp (relstore.TableView.Created). A delete and a
// reload under the same name give a larger one; a tree stored before the
// stamp existed reads 0.
func (t *Tree) Version() uint64 { return t.nodes.Created() }

// NodeCtx fetches a node by preorder id, attributing engine counters to the
// request span carried by ctx, if any.
func (t *Tree) NodeCtx(ctx context.Context, id int) (Node, error) {
	memo := newCellMemo(t)
	defer memo.release()
	return t.nodeRow(ctx, memo, id)
}

// NodeByNameCtx fetches a node by species name under ctx: one seek of the
// by_name index and the row it points at, read through a pooled memo, so
// the lookup allocates nothing but the name it returns.
func (t *Tree) NodeByNameCtx(ctx context.Context, name string) (Node, error) {
	memo := newCellMemo(t)
	defer memo.release()
	row, ok, err := memo.nodes.IndexGetCtx(ctx, "by_name", relstore.Str(name))
	if err != nil {
		return Node{}, err
	}
	if !ok {
		return Node{}, fmt.Errorf("%w: name %q", ErrNoNode, name)
	}
	return nodeOf(ctx, row)
}

// nodesByName reads the rows of the nodes with the given species names
// through the request memo, in argument order (a name given twice comes
// back twice), and decodes none of them: the callers read what they need.
// All the names are resolved in one sorted sweep of the by_name index and
// their rows read through the memo's nodes reader, so k names cost one
// descent per distinct leaf touched in either, not two descents each, and
// the nodes leaves stay held for the walk that follows. A name no node
// carries is an ErrNoNode error naming it.
func (t *Tree) nodesByName(ctx context.Context, memo *cellMemo, names []string) ([]relstore.Row, error) {
	vals := make([]relstore.Value, len(names))
	for i, name := range names {
		vals[i] = relstore.Str(name)
	}
	rows, found, err := memo.nodes.IndexGetBatchCtx(ctx, "by_name", vals)
	if err != nil {
		return nil, err
	}
	for i, ok := range found {
		if !ok {
			return nil, fmt.Errorf("%w: name %q", ErrNoNode, names[i])
		}
	}
	return rows, nil
}

// verticesByName is nodesByName's rows as projection vertices (vertexOf).
func (t *Tree) verticesByName(ctx context.Context, memo *cellMemo, names []string) ([]project.Vertex, error) {
	rows, err := t.nodesByName(ctx, memo, names)
	if err != nil {
		return nil, err
	}
	sel := make([]project.Vertex, len(rows))
	for i, row := range rows {
		if sel[i], err = vertexOf(ctx, row); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// idsByName is nodesByName's rows as their ids.
func (t *Tree) idsByName(ctx context.Context, memo *cellMemo, names []string) ([]int, error) {
	rows, err := t.nodesByName(ctx, memo, names)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(rows))
	var id [1]int64
	for i, row := range rows {
		if err := row.Ints(idCols, id[:]); err != nil {
			return nil, cmp.Or(ctx.Err(), err)
		}
		ids[i] = int(id[0])
	}
	return ids, nil
}

// layerCell is the subset of fields the LCA walk needs. Above layer 0 it
// climbs local parents; at layer 0 it climbs parents by preorder interval:
// the subtree of node id is the interval [id, id+size), so one row says
// whether the node is an ancestor of another (holds).
type layerCell struct {
	sub     int
	ldepth  int
	lparent int // layers >= 1: the parent in the subtree, -1 at its root
	parent  int // layer 0: the parent, -1 at the tree's root
	size    int // layer 0: the nodes in the subtree rooted here
}

// holds reports whether node id, whose layer-0 cell c is, is other or an
// ancestor of it: whether its preorder interval holds other.
func (c layerCell) holds(id, other int) bool { return id <= other && other < id+c.size }

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
// most often in the leaf of the last (or, in the lockstep climb, of the
// other side's last); the held leaves turn those reads into a compare or two
// — every relation here is keyed by dense ids, so a held row is found by
// number at its id's distance from its leaf's first — and decode nothing but
// the columns asked for. The nodes reader is opened with the memo; the layer
// and subs readers at the walk's first read of one of them, so a request
// that walks nothing (a name lookup, a sample) opens none. All of them draw
// on the one budget. It is request-scoped — taken for one call, never shared
// by two at once — and used from a single goroutine, so it needs no locking.
// Memos come from a pool and go back to it when their call returns
// (release), readers and all, so a request allocates none.
type cellMemo struct {
	budget int // leaves the readers may still retain, of memoMaxLeaves
	nodes  relstore.Reader
	upper  []relstore.Reader // subs_0.. then layer_1..; empty until the walk's first read of them
	ints   [4]int64          // scratch: the columns of the row being read
	reads  int               // cells and subs rows the walk has read
}

// memos holds the cellMemos no call is using. A sync.Pool keeps one list per
// P, so calls on many goroutines take and return memos without contending.
var memos = sync.Pool{New: func() any { return new(cellMemo) }}

// newCellMemo takes a memo from the pool for one call on t; the call gives
// it back with release.
func newCellMemo(t *Tree) *cellMemo {
	m := memos.Get().(*cellMemo)
	m.budget = memoMaxLeaves
	m.nodes = t.nodes.Reader(&m.budget, nodeCellCols...)
	return m
}

// release lets go of every leaf the memo's readers hold and returns it to
// the pool, keeping the room its readers took. Nothing the call hands out
// points into a memo — rows point into page images — so it may go back as
// the call returns.
func (m *cellMemo) release() {
	m.nodes = relstore.Reader{}
	clear(m.upper)
	m.upper = m.upper[:0]
	m.reads = 0
	memos.Put(m)
}

// subs is the reader of t's subs relation of layer k, layer the reader of
// its layer relation k >= 1; the first call of either opens them all.
func (m *cellMemo) subs(t *Tree, k int) *relstore.Reader { return &m.open(t)[k] }
func (m *cellMemo) layer(t *Tree, k int) *relstore.Reader {
	return &m.open(t)[len(t.subs)+k-1]
}

func (m *cellMemo) open(t *Tree) []relstore.Reader {
	if len(m.upper) == 0 {
		m.upper = slices.Grow(m.upper, len(t.subs)+len(t.layers))[:len(t.subs)+len(t.layers)]
		for k, tab := range t.subs {
			m.upper[k] = tab.Reader(&m.budget, subLinkCols...)
		}
		for k, tab := range t.layers {
			m.upper[len(t.subs)+k] = tab.Reader(&m.budget, layerCellCols...)
		}
	}
	return m.upper
}

// cell fetches the LCA walk's fields of node id at layer k, checking ctx
// first: the walk's local climbs are chains of point reads (at most 2f per
// layer), so this check is what makes an LCA (and everything built on it —
// Project, pattern match, clade) abort promptly on cancellation. The read
// goes through the layer's reader: three integers taken in place from the
// one row of the layer relation or, at layer 0, four from the wide nodes
// relation, whose other eight columns are passed over; and a descent only
// when the request has not been to the row's leaf yet. A layer-0 size below
// one or running past the tree is an ErrNoNode error: the walk trusts a node
// to be an ancestor by its interval.
func (t *Tree) cell(ctx context.Context, memo *cellMemo, k, id int) (layerCell, error) {
	if err := ctx.Err(); err != nil {
		return layerCell{}, err
	}
	memo.reads++
	r := &memo.nodes
	switch {
	case k > len(t.layers):
		// Only corrupt relations get here: the top layer's nodes share one
		// subtree, so a sound walk never climbs past it.
		return layerCell{}, fmt.Errorf("%w: layer %d beyond the handle's %d", ErrNoNode, k, len(t.layers))
	case k > 0:
		r = memo.layer(t, k)
	}
	ok, err := r.Ints(ctx, int64(id), memo.ints[:])
	if err != nil {
		return layerCell{}, err
	}
	if !ok {
		if k == 0 {
			return layerCell{}, fmt.Errorf("%w: id %d", ErrNoNode, id)
		}
		return layerCell{}, fmt.Errorf("%w: layer %d id %d", ErrNoNode, k, id)
	}
	if k > 0 {
		return layerCell{sub: int(memo.ints[0]), lparent: int(memo.ints[1]), ldepth: int(memo.ints[2])}, nil
	}
	c := layerCell{parent: int(memo.ints[0]), sub: int(memo.ints[1]), ldepth: int(memo.ints[2]), size: int(memo.ints[3])}
	if c.size < 1 || c.size > t.info.Nodes-id {
		return layerCell{}, fmt.Errorf("%w: node %d claims a subtree of %d nodes in a tree of %d", ErrNoNode, id, c.size, t.info.Nodes)
	}
	return c, nil
}

// nodeRow fetches a full layer-0 node row through the request memo: decoded
// from the leaf the request holds when it has been there — for the row's
// cell, or a neighbor's — and by one descent otherwise.
func (t *Tree) nodeRow(ctx context.Context, memo *cellMemo, id int) (Node, error) {
	row, err := memo.row(ctx, id)
	if err != nil {
		return Node{}, err
	}
	return nodeOf(ctx, row)
}

// vertexRow is nodeRow decoding only what a projection keeps of the row.
func (t *Tree) vertexRow(ctx context.Context, memo *cellMemo, id int) (project.Vertex, error) {
	row, err := memo.row(ctx, id)
	if err != nil {
		return project.Vertex{}, err
	}
	return vertexOf(ctx, row)
}

// row reads the nodes row of id through the memo's nodes reader; there
// being none is an ErrNoNode error.
func (m *cellMemo) row(ctx context.Context, id int) (relstore.Row, error) {
	row, ok, err := m.nodes.Row(ctx, int64(id))
	if err == nil && !ok {
		err = fmt.Errorf("%w: id %d", ErrNoNode, id)
	}
	return row, err
}

// subLink returns the root and source node of subtree s at layer k through
// the request memo. The recursion reads at most two of these per layer — the
// two child subtrees through which the sides enter the LCA's subtree — and
// the narrow subs relation packs hundreds to a leaf, so the pairs that
// follow in the same request mostly find theirs held.
func (t *Tree) subLink(ctx context.Context, memo *cellMemo, k, s int) (subLink, error) {
	memo.reads++
	ok, err := memo.subs(t, k).Ints(ctx, int64(s), memo.ints[:])
	if err != nil {
		return subLink{}, err
	}
	if !ok {
		return subLink{}, fmt.Errorf("%w: layer %d subtree %d", ErrNoNode, k, s)
	}
	return subLink{root: int(memo.ints[0]), source: int(memo.ints[1])}, nil
}

// LCACtx answers least-common-ancestor queries directly against the stored
// relations under ctx, fetching only the rows the query touches. A pair whose
// LCA lies in an endpoint's layer-0 subtree is answered from layer 0 alone —
// by the endpoints' preorder intervals and one climb of at most f cells on
// one side — and any other by the layered recursion of core.Index: per layer
// at most 2f cells and two subs rows, whatever the tree's depth, plus the two
// rows that ruled the climb out.
func (t *Tree) LCACtx(ctx context.Context, a, b int) (int, error) {
	memo := newCellMemo(t)
	defer memo.release()
	return t.lca(ctx, memo, a, b)
}

// LCANamesCtx returns the least common ancestor of two species, by name,
// under ctx. The names, the walk and the answer's row go through one memo:
// the leaves the name lookup read are the walk's end leaves, and the answer
// is mostly decoded from a leaf the walk has been to.
func (t *Tree) LCANamesCtx(ctx context.Context, a, b string) (Node, error) {
	memo := newCellMemo(t)
	defer memo.release()
	ends, err := t.idsByName(ctx, memo, []string{a, b})
	if err != nil {
		return Node{}, err
	}
	l, err := t.lca(ctx, memo, ends[0], ends[1])
	if err != nil {
		return Node{}, err
	}
	return t.nodeRow(ctx, memo, l)
}

// lca is the layer-0 LCA of a and b through the request memo. It reads both
// endpoints' cells, sizes included, and answers from layer 0 whenever rows
// prove where the LCA is:
//   - an endpoint whose interval holds the other is the answer;
//   - endpoints in one layer-0 subtree meet in it: the shallower one climbs
//     to its first ancestor whose interval holds the other;
//   - otherwise only the endpoint of the earlier subtree (in preorder) can be
//     in a subtree that holds the other, and one subs row and its root's
//     cell say whether it is; if so, that endpoint climbs the same way.
//
// Only otherwise does it run the layered recursion (across), on the cells
// already read. So a pair reads at most two cells or subs rows more than the
// recursion alone, and every answer stands on the nodes rows it was read
// from: a node whose interval holds both endpoints, reached by parents from
// one that holds one endpoint and not the other.
func (t *Tree) lca(ctx context.Context, memo *cellMemo, a, b int) (int, error) {
	ca, err := t.cell(ctx, memo, 0, a)
	if err != nil {
		return 0, err
	}
	cb, err := t.cell(ctx, memo, 0, b)
	if err != nil {
		return 0, err
	}
	switch {
	case ca.holds(a, b):
		return a, nil
	case cb.holds(b, a):
		return b, nil
	case ca.sub == cb.sub:
		if ca.ldepth > cb.ldepth {
			a, ca, b = b, cb, a
		}
		return t.climb(ctx, memo, a, ca, b)
	}
	if ca.sub > cb.sub {
		a, ca, b, cb = b, cb, a, ca
	}
	link, err := t.subLink(ctx, memo, 0, ca.sub)
	if err != nil {
		return 0, err
	}
	root, err := t.cell(ctx, memo, 0, link.root)
	if err != nil {
		return 0, err
	}
	if root.holds(link.root, b) {
		return t.climb(ctx, memo, a, ca, b)
	}
	return t.across(ctx, memo, a, ca, b, cb)
}

// climb returns the first ancestor of node a, whose layer-0 cell ca is, whose
// interval holds node b, climbing parents inside a's layer-0 subtree: the LCA
// of a and b when a does not hold b and the subtree holds their LCA. Running
// past the subtree's root is an ErrNoNode error — sound relations never get
// there — and so is a parent id not below its child's, so on corrupt
// relations too the climb ends within the ids below a.
func (t *Tree) climb(ctx context.Context, memo *cellMemo, a int, ca layerCell, b int) (int, error) {
	var err error
	for !ca.holds(a, b) {
		if ca.ldepth == 0 || ca.parent >= a {
			return 0, fmt.Errorf("%w: the climb to node %d's ancestors ends at node %d", ErrNoNode, b, a)
		}
		a = ca.parent
		if ca, err = t.cell(ctx, memo, 0, a); err != nil {
			return 0, err
		}
	}
	return a, nil
}

// across answers a pair whose LCA lies above both endpoints' layer-0
// subtrees. The recursion over the upper layers names the child subtree
// through which each side enters the LCA's layer-0 subtree, and its subs row
// the source node it enters at, an ancestor of the endpoint there. Where core
// climbs both entry points in lockstep, the interval lets one climb alone:
// an entry point that does not hold the other endpoint — the shallower, if
// both qualify — climbs to its first ancestor that does. Entry points that
// both hold both endpoints are, in sound relations, one node: the LCA,
// entered from two sides. Its child on a's path, the root of a's entered
// subtree, certifies it — holding a, not b, and having it for parent.
// Contradicting rows are an ErrNoNode error.
func (t *Tree) across(ctx context.Context, memo *cellMemo, a int, ca layerCell, b int, cb layerCell) (int, error) {
	cs, err := t.cell(ctx, memo, 1, ca.sub)
	if err != nil {
		return 0, err
	}
	cr, err := t.cell(ctx, memo, 1, cb.sub)
	if err != nil {
		return 0, err
	}
	_, sa, sb, err := t.lcaAt(ctx, memo, 1, ca.sub, cs, cb.sub, cr)
	if err != nil {
		return 0, err
	}
	ea, cea, eb, ceb, child := a, ca, b, cb, -1 // the entry points, and the root a's side enters through
	if sa >= 0 {
		link, err := t.subLink(ctx, memo, 0, sa)
		if err != nil {
			return 0, err
		}
		if cea, err = t.cell(ctx, memo, 0, link.source); err != nil {
			return 0, err
		}
		ea, child = link.source, link.root
	}
	if sb >= 0 {
		link, err := t.subLink(ctx, memo, 0, sb)
		if err != nil {
			return 0, err
		}
		if eb, ceb = link.source, cea; eb != ea {
			if ceb, err = t.cell(ctx, memo, 0, eb); err != nil {
				return 0, err
			}
		}
	}
	if !cea.holds(ea, a) || !ceb.holds(eb, b) {
		return 0, fmt.Errorf("%w: the subs rows enter the LCA of %d and %d's subtree at a node not above them", ErrNoNode, a, b)
	}
	upA, upB := !cea.holds(ea, b), !ceb.holds(eb, a)
	switch {
	case upA && (!upB || cea.ldepth <= ceb.ldepth):
		return t.climb(ctx, memo, ea, cea, b)
	case upB:
		return t.climb(ctx, memo, eb, ceb, a)
	case child < 0:
		return 0, fmt.Errorf("%w: node %d holds node %d past the recursion", ErrNoNode, ea, b)
	}
	cc, err := t.cell(ctx, memo, 0, child)
	if err != nil {
		return 0, err
	}
	if !cc.holds(child, a) || cc.holds(child, b) || cc.parent != ea {
		return 0, fmt.Errorf("%w: subtree root %d does not certify node %d as the LCA of %d and %d", ErrNoNode, child, ea, a, b)
	}
	return ea, nil
}

// lcaAt returns the LCA of a and b in layer k's tree, whose cells ca and cb
// are, and the child of that LCA on each side's path (-1 when the side is the
// LCA itself). Subtree ids of layer k are node ids of layer k+1, so the child
// subtree the upper layer reports for a side names the one subs row through
// which that side enters the LCA's subtree: its source is the side's ancestor
// there and its root the child on the path. No source chain is walked.
//
// It is core.Index's lcaAt over the request memo instead of slices, kept as a
// second copy on purpose: making the in-memory walk generic over a cell
// source cost it 1.75× (2.4× through a plain interface). Only the stored walk
// tries preorder intervals first (lca): core.Index keeps no sizes, and its
// recursion is the oracle the shortcuts are held to.
// TestLCADifferentialNaive holds the two to phylo.LCA on one table of tree
// shapes.
func (t *Tree) lcaAt(ctx context.Context, memo *cellMemo, k, a int, ca layerCell, b int, cb layerCell) (lca, childA, childB int, err error) {
	pa, pb := -1, -1
	if ca.sub != cb.sub {
		cs, err := t.cell(ctx, memo, k+1, ca.sub)
		if err != nil {
			return 0, 0, 0, err
		}
		cr, err := t.cell(ctx, memo, k+1, cb.sub)
		if err != nil {
			return 0, 0, 0, err
		}
		_, sa, sb, err := t.lcaAt(ctx, memo, k+1, ca.sub, cs, cb.sub, cr)
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

// count returns the number of ids in the set.
func (s idSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// next returns the smallest id >= from in the set, -1 if there is none. It
// steps a word at a time, so an empty stretch costs one test per 64 ids.
func (s idSet) next(from int) int {
	w := from >> 6
	if from < 0 || w >= len(s) {
		return -1
	}
	for word := s[w] &^ (1<<(from&63) - 1); ; word = s[w] {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		if w++; w == len(s) {
			return -1
		}
	}
}

// beyondCtx returns the set of nodes whose root distance exceeds time under
// ctx, read from the by_dist index alone: one key-only range scan from time,
// whose entries carry each node's distance and id, and no node row read.
func (t *Tree) beyondCtx(ctx context.Context, time float64) (idSet, error) {
	beyond := make(idSet, (t.info.Nodes+63)/64)
	err := t.nodes.IndexKeysCtx(ctx, "by_dist", relstore.Float(time), relstore.Value{}, func(dist float64, pk int64) (bool, error) {
		if dist <= time {
			return true, nil // the scan starts at time itself
		}
		id := int(pk)
		if !beyond.in(id) {
			return false, fmt.Errorf("treestore: frontier: node id %d out of range", id)
		}
		beyond.add(id)
		return true, nil
	})
	return beyond, err
}

// frontierCtx returns the frontier of a beyondCtx set — the maximal nodes
// in it, ascending — and the leaves of each one's clade, ascending, in one
// pass up the ids. The smallest id in the set is maximal: an ancestor has a
// smaller id, and had one been in the set, the id would lie in a clade
// already taken. Edge lengths are >= 0 (Load validates them), so a node's
// whole preorder range [id, id+size) is in the set with it, and the next
// maximal node is the smallest id in the set past that range. A maximal
// node's row comes through the request memo, for its size and leaf flag; an
// interior clade's leaves come from one range scan (cladeLeaves), which runs
// on into the next clade when that one starts where the last ends, so
// adjacent clades are one scan. A size that is not >= 1 or runs past the
// tree is an error, never a hang.
func (t *Tree) frontierCtx(ctx context.Context, memo *cellMemo, beyond idSet) (roots []int, groups [][]int, err error) {
	leaves := make([]int, 0, beyond.count()) // every leaf found is in the set
	var starts []int                         // starts[i]: where the leaves of roots[i] begin
	// open starts the clade of a maximal node and returns where it ends.
	open := func(id, size int) (int, error) {
		if size < 1 || size > t.info.Nodes-id {
			return 0, fmt.Errorf("treestore: frontier: node %d claims a clade of %d nodes in a tree of %d", id, size, t.info.Nodes)
		}
		roots, starts = append(roots, id), append(starts, len(leaves))
		return id + size, nil
	}
	// next opens the clade of a row that starts where the last clade ends,
	// when it is in the set.
	next := func(row relstore.Row, id, end int) (int, bool, error) {
		if id != end || !beyond.has(id) {
			return 0, false, nil
		}
		_, _, size, err := cladeOf(row)
		if err != nil {
			return 0, false, err
		}
		end, err = open(id, size)
		return end, err == nil, err
	}
	for id, end := beyond.next(0), 0; id >= 0; id = beyond.next(end) {
		row, err := memo.row(ctx, id)
		if err != nil {
			return nil, nil, err
		}
		_, leaf, size, err := cladeOf(row)
		if err != nil {
			return nil, nil, cmp.Or(ctx.Err(), err) // a cancelled read may land on a reclaimed page
		}
		if end, err = open(id, size); err != nil {
			return nil, nil, err
		}
		if leaf {
			leaves = append(leaves, id)
			continue
		}
		if end, err = t.cladeLeaves(ctx, id+1, id, end, relstore.Value{}, &leaves, next); err != nil {
			return nil, nil, err
		}
	}
	groups = make([][]int, len(roots))
	for i, at := range starts {
		to := len(leaves)
		if i+1 < len(starts) {
			to = starts[i+1]
		}
		groups[i] = leaves[at:to:to]
	}
	return roots, groups, nil
}

// leafIDs appends the ids of the leaves in the clade rooted at n, ascending:
// a leaf is its own clade, an interior node one range scan (cladeLeaves).
// The callers fetch the rows they keep.
func (t *Tree) leafIDs(ctx context.Context, n Node, ids []int) ([]int, error) {
	if n.Leaf {
		return append(ids, n.ID), nil
	}
	end := n.ID + n.Size
	_, err := t.cladeLeaves(ctx, n.ID, -1, end, relstore.Int(int64(end)), &ids, nil)
	return ids, err
}

// cladeLeaves appends to *ids the leaves among the nodes rows a range scan
// from `from` up to hi (the zero Value for no bound) reads, ascending, from
// each row's id and parent alone, read in place in one pass (Row.Ints) — no
// flag or size column is decoded. In
// preorder a node's first child is the row after it, so a row is a leaf when
// the next row's parent is not that row, and the last row of a clade — the
// one before end — always is. prev is the row before from, -1 when the scan
// starts at the clade's root. When the scan reaches a row at or past end,
// next — nil to stop there — says whether that row opens another clade and
// where that one ends, and the scan goes on into it. It returns the end of
// the last clade scanned.
func (t *Tree) cladeLeaves(ctx context.Context, from, prev, end int, hi relstore.Value, ids *[]int, next func(row relstore.Row, id, end int) (int, bool, error)) (int, error) {
	err := t.nodes.ScanRangeCtx(ctx, relstore.Int(int64(from)), hi, func(row relstore.Row) (bool, error) {
		var cols [2]int64
		if err := row.Ints(idParentCols, cols[:]); err != nil {
			return false, err
		}
		id, parent := int(cols[0]), int(cols[1])
		if prev >= 0 && parent != prev {
			*ids = append(*ids, prev) // a first child would be this row
		}
		prev = id
		if id < end {
			return true, nil
		}
		if next != nil {
			more, ok, err := next(row, id, end)
			if ok {
				end = more
				return true, nil
			}
			if err != nil {
				return false, err
			}
		}
		prev = -1 // the row that stops the scan is no clade's
		return false, nil
	})
	if err == nil && prev >= 0 {
		*ids = append(*ids, prev)
	}
	return end, err
}

// cladeOf reads the id, the leaf flag and the subtree size of a nodes row in
// place.
func cladeOf(row relstore.Row) (id int, leaf bool, size int, err error) {
	c := row.Cols()
	id = int(c.Int())
	c.Skip(colLeaf - colParent)
	leaf = c.Bool()
	size = int(c.Int())
	return id, leaf, size, c.Err()
}

// MinimalSpanningCladeCtx returns all nodes of the clade rooted at the LCA
// of the given nodes under ctx (§2.2: "the set of nodes in the tree rooted
// by their least common ancestor").
func (t *Tree) MinimalSpanningCladeCtx(ctx context.Context, ids []int) ([]Node, error) {
	memo := newCellMemo(t)
	defer memo.release()
	return t.clade(ctx, memo, ids)
}

// CladeNamesCtx is MinimalSpanningCladeCtx over species names: the rows the
// name lookup read are not read again by id.
func (t *Tree) CladeNamesCtx(ctx context.Context, names []string) ([]Node, error) {
	memo := newCellMemo(t)
	defer memo.release()
	ids, err := t.idsByName(ctx, memo, names)
	if err != nil {
		return nil, err
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
	defer memo.release()
	if 2*k > t.info.Leaves {
		leaves, err := t.leafIDs(ctx, Node{Size: t.info.Nodes, Leaf: t.info.Nodes == 1}, nil)
		if err != nil {
			return nil, err
		}
		return fetch(ctx, memo, sample.Pick(leaves, k, r), t.nodeRow)
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
		row, ok, err := memo.nodes.Row(ctx, int64(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrNoNode, id)
		}
		if _, leaf, _, err := cladeOf(row); err != nil {
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
// against the stored tree under ctx: the nodes beyond time from the distance
// index's keys, the frontier and its leaves in one ascending pass over them,
// then per-frontier quotas with remainder redistribution. The draws run on
// leaf ids; only the k drawn are fetched and decoded.
func (t *Tree) SampleWithTimeCtx(ctx context.Context, time float64, k int, r *rand.Rand) ([]Node, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: sample size must be >= 1", ErrBadSample)
	}
	frontierCtx, frontierSpan := obs.StartSpan(ctx, "frontier")
	beyond, err := t.beyondCtx(frontierCtx, time)
	frontierSpan.End()
	if err != nil {
		return nil, err
	}
	memo := newCellMemo(t)
	defer memo.release()
	leavesCtx, leavesSpan := obs.StartSpan(ctx, "collect_leaves")
	roots, groups, err := t.frontierCtx(leavesCtx, memo, beyond)
	leavesSpan.End()
	if err != nil {
		return nil, err
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("%w: no nodes beyond time %g", ErrBadSample, time)
	}
	leaves := 0
	for _, g := range groups {
		leaves += len(g)
	}
	if leaves < k {
		return nil, fmt.Errorf("%w: only %d leaves beyond time %g < %d", ErrBadSample, leaves, time, k)
	}
	picked := sample.Draw(groups, k, r)
	fetchCtx, fetchSpan := obs.StartSpan(ctx, "fetch_nodes")
	defer fetchSpan.End()
	return fetch(fetchCtx, memo, picked, t.nodeRow)
}

// fetch reads the rows of the distinct ids in preorder (id) order through
// the request memo, each decoded by read (nodeRow, vertexRow): one descent
// per distinct storage leaf they fall in, and those leaves are held for the
// LCA walk that follows. Any missing id is an ErrNoNode error.
func fetch[T any](ctx context.Context, memo *cellMemo, ids []int, read func(context.Context, *cellMemo, int) (T, error)) ([]T, error) {
	want := slices.Clone(ids)
	slices.Sort(want)
	want = slices.Compact(want)
	rows := make([]T, len(want))
	for i, id := range want {
		var err error
		if rows[i], err = read(ctx, memo, id); err != nil {
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
	defer memo.release()
	fetchCtx, fetchSpan := obs.StartSpan(ctx, "fetch_nodes")
	sel, err := fetch(fetchCtx, memo, ids, t.vertexRow)
	fetchSpan.End()
	if err != nil {
		return nil, err
	}
	return t.project(ctx, memo, sel)
}

// project is ProjectCtx over the vertices of rows read through memo, sorted
// in place: project.Build over the distinct ones, with the LCA answered by the stored walk and its
// row read through the same memo. A singleton projection walks nothing and
// opens no lca_walk span.
func (t *Tree) project(ctx context.Context, memo *cellMemo, sel []project.Vertex) (*phylo.Tree, error) {
	slices.SortFunc(sel, func(a, b project.Vertex) int { return a.ID - b.ID })
	if sel = slices.CompactFunc(sel, func(a, b project.Vertex) bool { return a.ID == b.ID }); len(sel) == 1 {
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
		return t.vertexRow(lcaCtx, memo, id)
	})
}

// vertexOf reads what a projection keeps of a nodes row — its id, name,
// depth and root distance — in place, the name copied out of the page.
func vertexOf(ctx context.Context, row relstore.Row) (project.Vertex, error) {
	c := row.Cols()
	v := project.Vertex{ID: int(c.Int())}
	c.Skip(colName - colParent)
	v.Name = string(c.Str())
	c.Skip(colDepth - colLength)
	v.Depth = int(c.Int())
	v.Dist = c.Float()
	if err := c.Err(); err != nil {
		return project.Vertex{}, cmp.Or(ctx.Err(), err) // a cancelled read may land on a reclaimed page
	}
	return v, nil
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
	defer memo.release()
	resolveCtx, resolveSpan := obs.StartSpan(ctx, "resolve_names")
	sel, err := t.verticesByName(resolveCtx, memo, names)
	resolveSpan.End()
	if err != nil {
		return nil, err
	}
	return t.project(ctx, memo, sel)
}
