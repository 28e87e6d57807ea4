package treestore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/treegen"
)

// counterCtx returns a context carrying a fresh span tree, so the
// assertions below are immune to other tests ticking the global obs.Engine
// counters. Operations open child spans and attribute counters to them;
// read the totals over the whole tree after the call.
func counterCtx() (context.Context, *obs.Span) {
	root := obs.NewRoot("test")
	return obs.ContextWithSpan(context.Background(), root), root
}

// total sums one counter over the span tree.
func total(root *obs.Span, name string) int64 {
	return root.Summary().Totals()[name]
}

// TestProjectCacheCutsDecodesAndDescents is the headline acceptance check
// for the hot read path: on a 10k-leaf tree, a k=50 projection must stay
// under fixed ceilings of B+tree descents and decoded cells. There is one
// query path, so descents are the same with the decoded-node cache off and
// on; the cache only spares the re-decoding of interior nodes. The counts
// are deterministic — 123 descents, one per distinct leaf the request
// touches, 10 135 cells with the cache, 26 214 without — and the ceilings
// sit ~10% over them. While the request memo kept a leaf's integers and not
// the leaf, 38 more descents went back for the full row of an LCA (161;
// 12 378 / 35 154 cells); before layer 0 read whole leaves at all, the same
// projection took 226 descents and 16 165 / 50 201 cells; the per-row path
// before that 1 145 descents and 225 139 cells.
func TestProjectCacheCutsDecodesAndDescents(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-leaf tree load")
	}
	gold, err := treegen.Yule(10000, 1.0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("big", gold, 4, nil); err != nil {
		t.Fatal(err)
	}

	st := openTreeOf(t, s, "big")
	sel, err := st.SampleUniformCtx(context.Background(), 50, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(sel))
	for i, n := range sel {
		ids[i] = n.ID
	}

	// Cache off: same query code, every interior node decoded per descent.
	offCtx, offSpan := counterCtx()
	want, err := st.ProjectCtx(offCtx, ids)
	if err != nil {
		t.Fatal(err)
	}
	offDescents := total(offSpan, "btree_descents")
	offCells := total(offSpan, "cells_decoded")

	// Cache on: one warm-up run so the interior working set is resident,
	// then the measured run.
	s.dbs[0].Store().SetReadCacheBytes(64 << 20)
	if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	onCtx, onSpan := counterCtx()
	got, err := st.ProjectCtx(onCtx, ids)
	if err != nil {
		t.Fatal(err)
	}
	onDescents := total(onSpan, "btree_descents")
	onCells := total(onSpan, "cells_decoded")

	if !phylo.Equal(got, want, 1e-12) {
		t.Fatal("cache-on projection differs from cache-off projection")
	}
	t.Logf("descents off=%d on=%d; cells off=%d on=%d", offDescents, onDescents, offCells, onCells)
	const (
		maxDescents = 135
		maxCellsOn  = 11100
		maxCellsOff = 28800
	)
	if onDescents != offDescents {
		t.Fatalf("btree_descents: off=%d on=%d, want equal (one query path)", offDescents, onDescents)
	}
	if onDescents == 0 || onDescents > maxDescents {
		t.Fatalf("btree_descents = %d, want 1..%d", onDescents, maxDescents)
	}
	if onCells == 0 || onCells > maxCellsOn {
		t.Fatalf("cells_decoded (cache on) = %d, want 1..%d", onCells, maxCellsOn)
	}
	if offCells > maxCellsOff {
		t.Fatalf("cells_decoded (cache off) = %d, want <= %d", offCells, maxCellsOff)
	}
}

// TestQueriesByteIdenticalAcrossCacheSizes runs the same query mix at every
// cache configuration — disabled, too small to admit anything, small
// enough to evict constantly, and comfortably large — and requires
// identical answers from all of them, reached through the identical number
// of B+tree descents: the cache size selects no query code. It runs on a
// shallow Yule tree and on a deep caterpillar (four layers at f=16), and
// pins a digest of the Project / MinimalSpanningClade / SampleWithTime / LCA
// answers recorded at commit 0874a91, before the LCA recursion stopped
// walking source chains and the frontier stopped reading parents: those
// changes remove reads, never a byte of any answer.
func TestQueriesByteIdenticalAcrossCacheSizes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gen    func() (*phylo.Tree, error)
		f      int
		digest string
	}{
		{"yule", func() (*phylo.Tree, error) { return treegen.Yule(2000, 1.0, rand.New(rand.NewSource(21))) }, 4,
			"a8d747db9eec3f2b64b3f83377ca6bf8f65c9166e4e895465e5e116613b37e91"},
		{"caterpillar", func() (*phylo.Tree, error) { return treegen.Caterpillar(5000, rand.New(rand.NewSource(23))) }, 16,
			"08f6ff36375b08ad1b0c486f991a1abfe04d0c8b21891a57ac10799aca3cd1e6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gold, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			queriesByteIdentical(t, gold, tc.f, tc.digest)
		})
	}
}

func queriesByteIdentical(t *testing.T, gold *phylo.Tree, f int, digest string) {
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("t", gold, f, nil); err != nil {
		t.Fatal(err)
	}
	base := openTreeOf(t, s, "t")
	ctx := context.Background()
	sel, err := base.SampleUniformCtx(ctx, 40, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(sel))
	height := 0.0
	for i, n := range sel {
		ids[i] = n.ID
		height = max(height, n.Dist)
	}

	type answers struct {
		project  *phylo.Tree
		export   *phylo.Tree
		clade    []Node
		sample   []Node
		lcas     []int
		descents int64
	}
	run := func(tr *Tree) (a answers, err error) {
		ctx, span := counterCtx()
		defer func() { a.descents = total(span, "btree_descents") }()
		if a.project, err = tr.ProjectCtx(ctx, ids); err != nil {
			return a, err
		}
		if a.export, err = tr.ExportCtx(ctx); err != nil {
			return a, err
		}
		if a.clade, err = tr.MinimalSpanningCladeCtx(ctx, ids); err != nil {
			return a, err
		}
		if a.sample, err = tr.SampleWithTimeCtx(ctx, height/2, 10, rand.New(rand.NewSource(24))); err != nil {
			return a, err
		}
		for i := 0; i+1 < len(ids); i += 2 {
			l, err := tr.LCACtx(ctx, ids[i], ids[i+1])
			if err != nil {
				return a, err
			}
			a.lcas = append(a.lcas, l)
		}
		return a, nil
	}

	want, err := run(base) // cache disabled: the reference answers
	if err != nil {
		t.Fatal(err)
	}
	if want.descents == 0 {
		t.Fatal("reference run counted no descents")
	}
	h := sha256.New()
	fmt.Fprintln(h, newick.String(want.project))
	fmt.Fprintln(h, want.clade, want.sample, want.lcas)
	if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		t.Fatalf("answers digest %s, want %s (recorded at commit 0874a91)", got, digest)
	}
	sameNodes := func(what string, got, want []Node) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s size %d != %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] differs", what, i)
			}
		}
	}
	for _, bytes := range []int64{64 << 10, 256 << 10, 64 << 20} {
		t.Run(fmt.Sprintf("cache=%d", bytes), func(t *testing.T) {
			s.dbs[0].Store().SetReadCacheBytes(bytes)
			tr := openTreeOf(t, s, "t")
			for pass := 0; pass < 2; pass++ { // cold, then warm
				got, err := run(tr)
				if err != nil {
					t.Fatal(err)
				}
				if !phylo.Equal(got.project, want.project, 0) {
					t.Fatalf("pass %d: projection differs", pass)
				}
				if !phylo.Equal(got.export, want.export, 0) {
					t.Fatalf("pass %d: export differs", pass)
				}
				sameNodes(fmt.Sprintf("pass %d: clade", pass), got.clade, want.clade)
				sameNodes(fmt.Sprintf("pass %d: sample", pass), got.sample, want.sample)
				for i := range got.lcas {
					if got.lcas[i] != want.lcas[i] {
						t.Fatalf("pass %d: lca[%d] = %d != %d", pass, i, got.lcas[i], want.lcas[i])
					}
				}
				if got.descents != want.descents {
					t.Fatalf("pass %d: %d descents, cache off took %d", pass, got.descents, want.descents)
				}
			}
		})
	}
	s.dbs[0].Store().SetReadCacheBytes(0) // leave the store as found
}

// TestChildrenCtxOrdinalOrder pins the preorder children walk — id+1, then
// each next sibling at child.ID + child.Size, up to id + Size — on a Yule
// tree, a star (one node with 500 children), a caterpillar and a single
// leaf: every node's children are the in-memory tree's, in ordinal order,
// each naming its parent, and an id outside the tree (-1, n) has none and is
// no error.
func TestChildrenCtxOrdinalOrder(t *testing.T) {
	yule, err := treegen.Yule(300, 1.0, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	caterpillar, err := treegen.Caterpillar(300, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	hub := &phylo.Node{}
	for i := 0; i < 500; i++ {
		hub.AddChild(&phylo.Node{Name: fmt.Sprintf("s%03d", i), Length: 1})
	}
	star, single := phylo.New(hub), phylo.New(&phylo.Node{Name: "solo"})
	star.Reindex()
	single.Reindex()
	for name, gold := range map[string]*phylo.Tree{"yule": yule, "star": star, "caterpillar": caterpillar, "single": single} {
		t.Run(name, func(t *testing.T) {
			st := loadTree(t, gold, 3)
			nodes := gold.Nodes()
			for id := -1; id <= len(nodes); id++ {
				kids, err := st.ChildrenCtx(context.Background(), id)
				if err != nil {
					t.Fatalf("node %d: %v", id, err)
				}
				var want []*phylo.Node
				if id >= 0 && id < len(nodes) {
					want = nodes[id].Children
				}
				if len(kids) != len(want) {
					t.Fatalf("node %d: %d children, want %d", id, len(kids), len(want))
				}
				for i, kid := range kids {
					if kid.ID != want[i].ID || kid.Ord != i+1 || kid.Parent != id {
						t.Fatalf("node %d child %d: id %d ord %d parent %d, want id %d ord %d", id, i, kid.ID, kid.Ord, kid.Parent, want[i].ID, i+1)
					}
				}
			}
		})
	}
}

// loadTree loads gold into a fresh in-memory repository at depth bound f.
func loadTree(t *testing.T, gold *phylo.Tree, f int) *Tree {
	t.Helper()
	s := OpenMem()
	t.Cleanup(func() { s.Close() })
	st := loadOpen(t, s, "t", gold, f)
	return st
}

// checkLCA compares both engines with the naive parent walk, which shares
// no code with either.
func checkLCA(t *testing.T, gold *phylo.Tree, ix *core.Index, st *Tree, a, b int) {
	t.Helper()
	nodes := gold.Nodes()
	want := phylo.LCA(nodes[a], nodes[b]).ID
	if got := ix.LCA(a, b); got != want {
		t.Fatalf("core LCA(%d,%d) = %d, want %d", a, b, got, want)
	}
	if got, err := st.LCACtx(context.Background(), a, b); err != nil || got != want {
		t.Fatalf("stored LCA(%d,%d) = %d, %v, want %d", a, b, got, err, want)
	}
}

// TestLCADifferentialNaive checks core.Index.LCA and the stored LCACtx
// against phylo.LCA on every ordered pair of small trees of five shapes at
// depth bounds that put subtree roots and source nodes everywhere (f=1
// makes every interior node a subtree root) — so a == b, ancestor and
// descendant pairs, the root, and pairs whose LCA is a subtree root or a
// source node are all covered — and on seeded pairs of the depth-20k
// caterpillar, where each side enters the LCA's subtree from hundreds of
// subtrees away.
func TestLCADifferentialNaive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, shape := range []struct {
		name string
		gen  func() (*phylo.Tree, error)
	}{
		{"caterpillar", func() (*phylo.Tree, error) { return treegen.Caterpillar(30, r) }},
		{"balanced", func() (*phylo.Tree, error) { return treegen.Balanced(5, r) }},
		{"yule", func() (*phylo.Tree, error) { return treegen.Yule(32, 1.0, r) }},
		{"birth-death", func() (*phylo.Tree, error) { return treegen.BirthDeath(24, 1.0, 0.4, true, r) }},
		// Unbounded fan-out: a parent drawn uniformly from the nodes so far.
		// Its own source, so the rows above draw what they always drew.
		{"random-attach", func() (*phylo.Tree, error) { return treegen.RandomAttach(160, rand.New(rand.NewSource(43))) }},
	} {
		name := shape.name
		gold, err := shape.gen()
		if err != nil {
			t.Fatal(err)
		}
		n := gold.NumNodes()
		if n > 200 {
			t.Fatalf("%s: %d nodes, the all-pairs trees are meant to stay <= 200", name, n)
		}
		for _, f := range []int{1, 2, 3, 6, 16} {
			t.Run(fmt.Sprintf("%s/f=%d", name, f), func(t *testing.T) {
				ix, err := core.Build(gold, f)
				if err != nil {
					t.Fatal(err)
				}
				st := loadTree(t, gold, f)
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						checkLCA(t, gold, ix, st, a, b)
					}
				}
			})
		}
	}
	t.Run("caterpillar/depth=20000", func(t *testing.T) {
		if testing.Short() {
			t.Skip("40k-node tree load")
		}
		gold, err := treegen.Caterpillar(20000, r)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(gold, 16)
		if err != nil {
			t.Fatal(err)
		}
		st := loadTree(t, gold, 16)
		for i := 0; i < 2000; i++ {
			checkLCA(t, gold, ix, st, r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes()))
		}
	})
}

// TestDeepLCADescentCeiling pins the paper's cost claim on the stored
// engine with deterministic counters. On caterpillars at f=16 an LCA reads,
// per layer, at most 2f local cells, the 2 query cells, the 2 entered source
// cells and 2 subs rows — a source-chain walk would read depth/f — and since
// the request holds every storage leaf a read lands in, those reads collapse
// into a few descents a layer: over 500 seeded pairs the mean is 6.0 at
// depth 2k (3 layers, worst pair 7) and 8.8 at depth 20k (4 layers, worst
// 11). The ceilings are absolute, per layer: a mean of 2.5 descents and no
// pair over 3. The code that made a descent of every layer-0 read took 4.6
// and 4.1 a layer on the same pairs (means 13.7 and 16.4) and fails both.
//
// The two means are not compared with each other. The top layer is one
// storage leaf and enters nothing, so it costs one descent where a lower
// layer costs about three: the cost is affine in the layer count, about
// 3(L-1)+1, and a tree with fewer layers is cheaper by more than the layer
// ratio — 8.8 is above 4/3 of 6.0 with nothing walked twice.
func TestDeepLCADescentCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-node tree load")
	}
	const (
		f            = 16
		meanPerLayer = 2.5
		maxPerLayer  = 3
	)
	layers := map[int]int{}
	for _, depth := range []int{2000, 20000} {
		gold, err := treegen.Caterpillar(depth, rand.New(rand.NewSource(51)))
		if err != nil {
			t.Fatal(err)
		}
		st := loadTree(t, gold, f)
		layers[depth] = st.Info().Layers
		ceiling := int64(maxPerLayer * layers[depth])
		r := rand.New(rand.NewSource(52))
		sum, worst := int64(0), int64(0)
		for i := 0; i < 500; i++ {
			a, b := r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes())
			ctx, span := counterCtx()
			if _, err := st.LCACtx(ctx, a, b); err != nil {
				t.Fatal(err)
			}
			d := total(span, "btree_descents")
			if d > ceiling {
				t.Fatalf("depth %d: LCA(%d,%d) took %d descents, ceiling %d = %d a layer over %d layers", depth, a, b, d, ceiling, maxPerLayer, layers[depth])
			}
			sum += d
			worst = max(worst, d)
		}
		mean := float64(sum) / 500
		t.Logf("depth %d: %d layers, mean %.1f descents, worst %d, ceiling %d", depth, layers[depth], mean, worst, ceiling)
		if limit := meanPerLayer * float64(layers[depth]); mean > limit {
			t.Fatalf("depth %d: mean %.1f descents over %d layers, want <= %.1f (%.1f a layer)", depth, mean, layers[depth], limit, meanPerLayer)
		}
	}
	if layers[2000] != 3 || layers[20000] != 4 {
		t.Fatalf("layers = %v, want 3 at depth 2k and 4 at depth 20k", layers)
	}
}

// TestSampleWithTimeDescents pins the frontier's cost: a k=50 sample beyond
// a time that about 2 000 nodes of the depth-20k caterpillar exceed must
// take fewer descents than a tenth of that candidate count — the by_dist
// entries resolve in shared batches, no candidate's parent is read, and
// each frontier clade is one range scan.
func TestSampleWithTimeDescents(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-node tree load")
	}
	gold, err := treegen.Caterpillar(20000, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	st := loadTree(t, gold, 16)
	ctx := context.Background()
	last, err := st.NodeCtx(ctx, gold.NumNodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	time := 0.95 * last.Dist
	candidates := 0
	for id := 0; id < gold.NumNodes(); id++ {
		if n, err := st.NodeCtx(ctx, id); err != nil {
			t.Fatal(err)
		} else if n.Dist > time {
			candidates++
		}
	}
	if candidates < 1500 || candidates > 2500 {
		t.Fatalf("%d nodes beyond time, the fixture is meant to have about 2000", candidates)
	}
	sctx, span := counterCtx()
	got, err := st.SampleWithTimeCtx(sctx, time, 50, rand.New(rand.NewSource(54)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("sampled %d leaves, want 50", len(got))
	}
	d := total(span, "btree_descents")
	t.Logf("%d candidates, %d descents", candidates, d)
	if d == 0 || d >= int64(candidates/10) {
		t.Fatalf("SampleWithTime took %d descents over %d candidates, want 1..%d", d, candidates, candidates/10-1)
	}
}
