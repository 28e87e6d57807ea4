package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/phylo"
	"repro/internal/treestore"
)

// opKind is one operation class of a workload's mix.
type opKind uint8

const (
	opLCA opKind = iota
	opProject
	opClade
	opSample
	opSampleTime
	opInfo
	opTrees
	opMatch
	opExport
	opLoad
	opDelete
	opPut
	opGet
	opList
	numOpKinds
)

var opNames = [numOpKinds]string{"lca", "project", "clade", "sample", "sample_time", "info", "trees",
	"match", "export", "load", "delete", "put", "get", "list"}

func (k opKind) String() string { return opNames[k] }

// speciesKind is the species-data kind every put/get/list uses.
const speciesKind = "seq:bench"

// op is one generated operation: everything the system under test is
// handed, plus (for get) the answer the generator knows it must give.
type op struct {
	kind    opKind
	tree    string
	names   []string    // lca: 2 species; project/clade: k; put/get/list: 1
	k       int         // sample size
	seed    int64       // sample seed
	time    float64     // sample_time threshold
	body    string      // load: Newick upload body
	pattern *phylo.Tree // match: the pattern tree
	data    []byte      // put: payload; get: expected payload
}

// key is the op's canonical text, the unit of the op-stream digest.
func (o *op) key() string {
	pat := ""
	if o.pattern != nil {
		pat = crimson.FormatNewick(o.pattern)
	}
	return fmt.Sprintf("%s|%s|%s|%d|%d|%g|%d|%s|%x", o.kind, o.tree, strings.Join(o.names, ","),
		o.k, o.seed, o.time, len(o.body), pat, o.data)
}

// nodeRes is the part of a node row every entrance can report.
type nodeRes struct {
	ID, Parent, Depth, Size int
	Name                    string
	Leaf                    bool
	Length, Dist            float64
}

func nodeOfRow(n treestore.Node) nodeRes {
	return nodeRes{ID: n.ID, Parent: n.Parent, Depth: n.Depth, Size: n.Size, Name: n.Name, Leaf: n.Leaf, Length: n.Length, Dist: n.Dist}
}

func nodeOfWire(n client.Node) nodeRes {
	return nodeRes{ID: n.ID, Parent: n.Parent, Depth: n.Depth, Size: n.Size, Name: n.Name, Leaf: n.Leaf, Length: n.Length, Dist: n.Dist}
}

// result is an op's answer in the form the checks compare: whichever
// entrance produced it, the same query yields the same result.
type result struct {
	node   nodeRes     // lca: the ancestor; clade: its root
	newick string      // project/match/export over HTTP
	tree   *phylo.Tree // project/match below HTTP
	names  []string    // sample, clade: sorted species
	n      int         // clade/info/load: nodes; trees/list: entries
	leaves int         // project/clade/info/load
	rf     int         // match
	data   []byte      // get
	cached bool        // served from the server's result cache
}

// entrance executes ops at one layer boundary. do reports the time the
// call spent at (and below) that boundary; harness glue such as resolving
// names to ids for the treestore entrance is left out of it.
type entrance interface {
	do(ctx context.Context, o *op) (result, time.Duration, error)
}

// --- client: package client over HTTP ---------------------------------------

type clientEntrance struct {
	cl *client.Client
	// inproc is set when cl talks to the servers through the in-process
	// transport: the op is then charged the time inside ServeHTTP only.
	inproc *inprocTransport
}

func (e *clientEntrance) do(ctx context.Context, o *op) (result, time.Duration, error) {
	var before time.Duration
	if e.inproc != nil {
		before = e.inproc.busy
	}
	t0 := time.Now()
	res, err := e.call(ctx, o)
	d := time.Since(t0)
	if e.inproc != nil {
		d = e.inproc.busy - before
	}
	return res, d, err
}

func (e *clientEntrance) call(ctx context.Context, o *op) (result, error) {
	cl := e.cl
	switch o.kind {
	case opLCA:
		r, err := cl.LCACtx(ctx, o.tree, o.names[0], o.names[1])
		return result{node: nodeOfWire(r.Node), cached: r.Cached}, err
	case opProject:
		r, err := cl.ProjectCtx(ctx, o.tree, o.names)
		return result{newick: r.Newick, leaves: r.Leaves, cached: r.Cached}, err
	case opClade:
		r, err := cl.CladeCtx(ctx, o.tree, o.names)
		return result{node: nodeOfWire(r.Root), n: r.Nodes, leaves: r.Leaves, names: r.Species, cached: r.Cached}, err
	case opSample:
		names, err := cl.SampleUniformCtx(ctx, o.tree, o.k, o.seed)
		return result{names: names}, err
	case opSampleTime:
		names, err := cl.SampleWithTimeCtx(ctx, o.tree, o.time, o.k, o.seed)
		return result{names: names}, err
	case opInfo:
		info, err := cl.InfoCtx(ctx, o.tree)
		return result{n: info.Nodes, leaves: info.Leaves}, err
	case opTrees:
		infos, err := cl.TreesCtx(ctx)
		return result{n: len(infos)}, err
	case opMatch:
		r, err := cl.MatchCtx(ctx, o.tree, o.pattern)
		return result{newick: r.Projected, rf: r.RF, cached: r.Cached}, err
	case opExport:
		rc, err := cl.ExportReader(ctx, o.tree)
		if err != nil {
			return result{}, err
		}
		raw, err := io.ReadAll(rc)
		rc.Close()
		return result{newick: string(raw)}, err
	case opLoad:
		info, err := cl.LoadNewickCtx(ctx, o.tree, 0, strings.NewReader(o.body))
		return result{n: info.Nodes, leaves: info.Leaves}, err
	case opDelete:
		return result{}, cl.DeleteCtx(ctx, o.tree)
	case opPut:
		return result{}, cl.PutSpeciesDataCtx(ctx, o.tree, o.names[0], speciesKind, o.data)
	case opGet:
		data, err := cl.SpeciesDataCtx(ctx, o.tree, o.names[0], speciesKind)
		return result{data: data}, err
	case opList:
		recs, err := cl.ListSpeciesDataCtx(ctx, o.tree, o.names[0])
		return result{n: len(recs)}, err
	}
	return result{}, fmt.Errorf("perfbench: client entrance: unknown op kind %d", o.kind)
}

// inprocTransport hands requests straight to the servers' ServeHTTP, so
// package client can drive crimsond with no socket in between. busy
// accumulates the time spent inside ServeHTTP. One goroutine at a time.
type inprocTransport struct {
	hosts map[string]http.Handler // URL host -> server
	busy  time.Duration
	spans *spanLog
}

func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("perfbench: no in-process server for host %q", req.URL.Host)
	}
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	t1 := time.Now()
	t.busy += t1.Sub(t0)
	t.spans.child("server.ServeHTTP "+req.Method, t0, t1)
	return rec.Result(), nil
}

// --- crimson: the public facade, one snapshot per op as the server does -----

type facadeEntrance struct {
	read  *crimson.Repository // answers queries (the follower on repl_rw)
	write *crimson.Repository // takes mutations (always the primary)
	spans *spanLog
}

func (e *facadeEntrance) do(ctx context.Context, o *op) (result, time.Duration, error) {
	t0 := time.Now()
	res, err := e.call(ctx, o)
	return res, time.Since(t0), err
}

func (e *facadeEntrance) call(ctx context.Context, o *op) (result, error) {
	switch o.kind {
	case opLoad:
		t0 := time.Now()
		tr, err := crimson.ParseNewickWorkers(o.body, 0)
		e.spans.child("newick.parse", t0, time.Now())
		if err != nil {
			return result{}, err
		}
		st, err := e.write.LoadTreeOpts(o.tree, tr, crimson.DefaultFanout, crimson.LoadOptions{}, nil)
		if err != nil {
			return result{}, err
		}
		return result{n: st.Info().Nodes, leaves: st.Info().Leaves}, nil
	case opDelete:
		if err := e.write.Trees.Delete(o.tree); err != nil {
			return result{}, err
		}
		if _, err := e.write.Species.DeleteTree(o.tree); err != nil {
			return result{}, err
		}
		return result{}, e.write.Commit()
	case opPut:
		if err := e.write.Species.Put(o.tree, o.names[0], speciesKind, o.data); err != nil {
			return result{}, err
		}
		return result{}, e.write.Commit()
	}

	t0 := time.Now()
	sn, err := e.read.SnapshotCtx(ctx)
	if err != nil {
		return result{}, err
	}
	defer sn.Close()
	e.spans.child("crimson.snapshot", t0, time.Now())
	switch o.kind {
	case opTrees:
		infos, err := sn.Trees()
		return result{n: len(infos)}, err
	case opGet:
		data, err := sn.SpeciesView.Get(o.tree, o.names[0], speciesKind)
		return result{data: data}, err
	case opList:
		recs, err := sn.SpeciesView.List(o.tree, o.names[0])
		return result{n: len(recs)}, err
	}
	t0 = time.Now()
	t, err := sn.Tree(o.tree)
	e.spans.child("crimson.tree", t0, time.Now())
	if err != nil {
		return result{}, err
	}
	switch o.kind {
	case opInfo:
		return result{n: t.Info().Nodes, leaves: t.Info().Leaves}, nil
	case opLCA:
		ids, err := idsByName(ctx, t, o.names)
		if err != nil {
			return result{}, err
		}
		return lcaByID(ctx, t, ids[0], ids[1])
	case opProject:
		p, err := t.ProjectNamesCtx(ctx, o.names)
		if err != nil {
			return result{}, err
		}
		return result{tree: p, leaves: p.NumLeaves()}, nil
	case opClade:
		ids, err := idsByName(ctx, t, o.names)
		if err != nil {
			return result{}, err
		}
		return cladeByID(ctx, t, ids)
	case opSample, opSampleTime:
		return sampleOn(ctx, t, o)
	case opMatch:
		p, err := t.ProjectNamesCtx(ctx, o.pattern.LeafNames())
		if err != nil {
			return result{}, err
		}
		rf, err := crimson.RobinsonFoulds(p, o.pattern)
		return result{tree: p, rf: rf}, err
	case opExport:
		var sb strings.Builder
		err := t.ExportNewickTo(ctx, &sb)
		return result{newick: sb.String()}, err
	}
	return result{}, fmt.Errorf("perfbench: facade entrance: unknown op kind %d", o.kind)
}

func idsByName(ctx context.Context, t *crimson.StoredTree, names []string) ([]int, error) {
	ids := make([]int, len(names))
	for i, name := range names {
		row, err := t.NodeByNameCtx(ctx, name)
		if err != nil {
			return nil, err
		}
		ids[i] = row.ID
	}
	return ids, nil
}

func lcaByID(ctx context.Context, t *crimson.StoredTree, a, b int) (result, error) {
	id, err := t.LCACtx(ctx, a, b)
	if err != nil {
		return result{}, err
	}
	row, err := t.NodeCtx(ctx, id)
	return result{node: nodeOfRow(row)}, err
}

func cladeByID(ctx context.Context, t *crimson.StoredTree, ids []int) (result, error) {
	clade, err := t.MinimalSpanningCladeCtx(ctx, ids)
	if err != nil {
		return result{}, err
	}
	res := result{node: nodeOfRow(clade[0]), n: len(clade)}
	for _, n := range clade {
		if n.Leaf {
			res.leaves++
			res.names = append(res.names, n.Name)
		}
	}
	sort.Strings(res.names)
	return res, nil
}

func sampleOn(ctx context.Context, t *crimson.StoredTree, o *op) (result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	var rows []crimson.StoredNode
	var err error
	if o.kind == opSampleTime {
		rows, err = t.SampleWithTimeCtx(ctx, o.time, o.k, rng)
	} else {
		rows, err = t.SampleUniformCtx(ctx, o.k, rng)
	}
	if err != nil {
		return result{}, err
	}
	names := make([]string, len(rows))
	for i, n := range rows {
		names[i] = n.Name
	}
	sort.Strings(names)
	return result{names: names}, nil
}

// --- treestore: ops by node id on handles that are already open -------------

type treestoreEntrance struct {
	fx    *fixture
	read  *crimson.Repository
	store *treestore.Store // mutations
	// snap is opened on the first read and held for the pass, with the
	// handles opened on it. A follower invalidates snapshots pinned across
	// an apply, so there (refresh) each op gets a fresh one, untimed.
	snap    *crimson.Snapshot
	refresh bool
	trees   map[string]*treestore.Tree // handles opened on snap, by tree name
	parse   map[string]*crimson.Tree   // load bodies parsed ahead, by body
}

func newTreestoreEntrance(fx *fixture, read, write *crimson.Repository) *treestoreEntrance {
	return &treestoreEntrance{fx: fx, read: read, store: write.Trees, refresh: read != write,
		trees: map[string]*treestore.Tree{}, parse: map[string]*crimson.Tree{}}
}

func (e *treestoreEntrance) close() {
	if e.snap != nil {
		e.snap.Close()
		e.snap = nil
	}
	clear(e.trees)
}

func (e *treestoreEntrance) snapshot() *crimson.Snapshot {
	if e.refresh {
		e.close()
	}
	if e.snap == nil {
		e.snap = e.read.Snapshot()
	}
	return e.snap
}

func (e *treestoreEntrance) handle(name string) (*treestore.Tree, error) {
	sn := e.snapshot()
	if t, ok := e.trees[name]; ok {
		return t, nil
	}
	t, err := sn.Tree(name)
	if err == nil {
		e.trees[name] = t
	}
	return t, err
}

func (e *treestoreEntrance) do(ctx context.Context, o *op) (result, time.Duration, error) {
	timed := func(fn func() (result, error)) (result, time.Duration, error) {
		t0 := time.Now()
		res, err := fn()
		return res, time.Since(t0), err
	}
	switch o.kind {
	case opLoad:
		tr, ok := e.parse[o.body]
		if !ok {
			var err error
			if tr, err = crimson.ParseNewick(o.body); err != nil {
				return result{}, 0, err
			}
			e.parse[o.body] = tr
		}
		return timed(func() (result, error) {
			st, err := e.store.LoadOpts(o.tree, tr, crimson.DefaultFanout, treestore.LoadOptions{}, nil)
			if err != nil {
				return result{}, err
			}
			return result{n: st.Info().Nodes, leaves: st.Info().Leaves}, nil
		})
	case opDelete:
		return timed(func() (result, error) { return result{}, e.store.Delete(o.tree) })
	case opTrees:
		sn := e.snapshot()
		return timed(func() (result, error) {
			infos, err := sn.TreeSnap.TreesCtx(ctx)
			return result{n: len(infos)}, err
		})
	case opPut, opGet, opList:
		// Species data is not the tree store's: nothing to time here.
		return result{data: o.data, n: 1}, 0, nil
	}
	t, err := e.handle(o.tree)
	if err != nil {
		return result{}, 0, err
	}
	var ids []int
	if o.kind == opLCA || o.kind == opProject || o.kind == opClade {
		ids = e.fx.ids(o.tree, o.names)
	}
	switch o.kind {
	case opInfo:
		return result{n: t.Info().Nodes, leaves: t.Info().Leaves}, 0, nil
	case opLCA:
		return timed(func() (result, error) { return lcaByID(ctx, t, ids[0], ids[1]) })
	case opProject:
		return timed(func() (result, error) {
			p, err := t.ProjectCtx(ctx, ids)
			if err != nil {
				return result{}, err
			}
			return result{tree: p, leaves: p.NumLeaves()}, nil
		})
	case opClade:
		return timed(func() (result, error) { return cladeByID(ctx, t, ids) })
	case opSample, opSampleTime:
		return timed(func() (result, error) { return sampleOn(ctx, t, o) })
	case opMatch:
		ids = e.fx.ids(o.tree, o.pattern.LeafNames())
		return timed(func() (result, error) {
			p, err := t.ProjectCtx(ctx, ids)
			if err != nil {
				return result{}, err
			}
			rf, err := crimson.RobinsonFoulds(p, o.pattern)
			return result{tree: p, rf: rf}, err
		})
	case opExport:
		return timed(func() (result, error) {
			var sb strings.Builder
			err := t.ExportNewickTo(ctx, &sb)
			return result{newick: sb.String()}, err
		})
	}
	return result{}, 0, fmt.Errorf("perfbench: treestore entrance: unknown op kind %d", o.kind)
}
