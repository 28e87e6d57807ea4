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
	"repro/internal/relstore"
	"repro/internal/storage"
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
// query path, so descents are the same whatever is cached: 123, one per
// distinct leaf the request touches, with a ceiling ~10% over. A page is
// decoded once per buffer-pool residency — the frame keeps the node with
// the image, and a write keeps none — so the first run after the load, which
// finds kept only the leaves the sample that chose its ids decoded, decodes
// 7 134 cells, under a ceiling of 11 100, and a warm repeat decodes none.
// While every read re-indexed its page, the cold run decoded 26 214 cells
// and a warm one 10 135 with a decoded-node cache on; while the request
// memo kept a leaf's integers and not the leaf, 38 more descents went back
// for the full row of an LCA (161); before layer 0 read whole leaves at
// all, the same projection took 226 descents; the per-row path before that
// 1 145 descents and 225 139 cells.
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
	type run struct {
		name            string
		descents, cells int64
	}
	project := func(name string) (*phylo.Tree, run) {
		ctx, span := counterCtx()
		p, err := st.ProjectCtx(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		return p, run{name, total(span, "btree_descents"), total(span, "cells_decoded")}
	}

	want, cold := project("cold")
	got, warm := project("warm")
	if !phylo.Equal(got, want, 1e-12) {
		t.Fatal("warm projection differs from the cold one")
	}
	t.Logf("%+v %+v", cold, warm)
	const (
		maxDescents  = 135
		maxCellsCold = 11100
	)
	if cold.descents == 0 || cold.descents > maxDescents {
		t.Fatalf("btree_descents = %d, want 1..%d", cold.descents, maxDescents)
	}
	if cold.cells == 0 || cold.cells > maxCellsCold {
		t.Fatalf("cells_decoded (cold) = %d, want 1..%d", cold.cells, maxCellsCold)
	}
	if warm.descents != cold.descents {
		t.Fatalf("btree_descents: warm %d, cold %d, want equal (one query path)", warm.descents, cold.descents)
	}
	if warm.cells != 0 {
		t.Fatalf("cells_decoded (warm) = %d, want 0: every page it reads is resident and decoded", warm.cells)
	}
}

// TestQueriesByteIdenticalAcrossCacheSizes runs the same query mix at three
// sizes of the page cache, the buffer pool — 16 frames and 64, small enough
// to evict constantly, and the default 4 096, which holds the whole tree —
// and requires identical answers from all of them, reached through the
// identical number of B+tree descents: the pool size selects no query code,
// and a node kept by a frame leaves with it. Subtests name the size in
// bytes. It runs on a shallow Yule tree and on a deep caterpillar (four
// layers at f=16), and pins a digest of the Project / MinimalSpanningClade
// / SampleWithTime / LCA answers recorded at commit 0874a91, before the LCA
// recursion stopped walking source chains and the frontier stopped reading
// parents: those changes remove reads, never a byte of any answer.
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
		reads    int64 // pages read from the pager
	}
	run := func(tr *Tree) (a answers, err error) {
		ctx, span := counterCtx()
		defer func() { a.descents, a.reads = total(span, "btree_descents"), total(span, "pages_read") }()
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

	want, err := run(base) // the default pool, cold: the reference answers
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
	for _, frames := range []int{16, 64, 4096} {
		t.Run(fmt.Sprintf("cache=%d", frames*storage.PageSize), func(t *testing.T) {
			db, err := relstore.NewOnStore(storage.OpenMemWithPoolLimit(frames))
			if err != nil {
				t.Fatal(err)
			}
			ps, err := newOnDB(db)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ps.Close() })
			if _, err := ps.Load("t", gold, f, nil); err != nil {
				t.Fatal(err)
			}
			tr := openTreeOf(t, ps, "t")
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
					t.Fatalf("pass %d: %d descents, the reference took %d", pass, got.descents, want.descents)
				}
				if pass == 1 && frames == 16 && got.reads == 0 {
					t.Fatal("the warm pass over a 16-frame pool read no page: nothing was evicted")
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
// source node are all covered — on seeded pairs of the depth-20k
// caterpillar, where the LCA lies hundreds of subtrees above the deeper
// side, and on seeded pairs of a 20k-leaf Yule tree, where most pairs meet
// above both endpoints' layer-0 subtrees and take the layered recursion.
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
	t.Run("yule/leaves=20000", func(t *testing.T) {
		if testing.Short() {
			t.Skip("40k-node tree load")
		}
		gold, err := treegen.Yule(20000, 1.0, rand.New(rand.NewSource(45)))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(gold, 16)
		if err != nil {
			t.Fatal(err)
		}
		st := loadTree(t, gold, 16)
		const pairs = 2000
		above := 0
		for i := 0; i < pairs; i++ {
			a, b := r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes())
			checkLCA(t, gold, ix, st, a, b)
			if aboveLayerZero(ix, a, b) {
				above++
			}
		}
		t.Logf("%d of %d pairs meet above both endpoints' layer-0 subtrees", above, pairs)
		if 2*above < pairs {
			t.Fatalf("only %d of %d pairs take the recursion; the fixture is meant to send most there", above, pairs)
		}
	})
}

// aboveLayerZero reports whether the LCA of a and b lies outside both
// endpoints' layer-0 subtrees: the pairs the stored walk cannot answer from
// layer 0 and hands to the layered recursion.
func aboveLayerZero(ix *core.Index, a, b int) bool {
	sub := ix.Layers[0].Sub
	l := ix.LCA(a, b)
	return sub[l] != sub[a] && sub[l] != sub[b]
}

// recursionReads counts the cells and subs rows the stored walk read for
// the pair a, b when it was the layered recursion alone — core.Index's lcaAt
// over stored rows, both endpoints' cells first, then per layer where the
// sides' subtrees differ the two subtrees' cells one layer up, a subs row
// and a source cell per side entering the LCA's subtree, and the lockstep
// climb's cells.
func recursionReads(ix *core.Index, a, b int) int {
	reads := 2
	var at func(k int, a, b int32) (int32, int32, int32)
	at = func(k int, a, b int32) (int32, int32, int32) {
		l := ix.Layers[k]
		pa, pb := int32(-1), int32(-1)
		if l.Sub[a] != l.Sub[b] {
			reads += 2
			_, sa, sb := at(k+1, l.Sub[a], l.Sub[b])
			if sa >= 0 {
				a, pa = l.SubSource[sa], l.SubRoot[sa]
				reads += 2
			}
			if sb >= 0 {
				b, pb = l.SubSource[sb], l.SubRoot[sb]
				reads += 2
			}
		}
		for l.LocalDepth[a] > l.LocalDepth[b] {
			a, pa = l.LocalParent[a], a
			reads++
		}
		for l.LocalDepth[b] > l.LocalDepth[a] {
			b, pb = l.LocalParent[b], b
			reads++
		}
		for a != b {
			a, pa = l.LocalParent[a], a
			b, pb = l.LocalParent[b], b
			reads += 2
		}
		return a, pa, pb
	}
	at(0, int32(a), int32(b))
	return reads
}

// TestLCAReadsBoundedByTheRecursion holds the walk's worst case to the
// layered recursion it falls back on: on pairs whose LCA lies above both
// endpoints' layer-0 subtrees, which layer 0 cannot answer, the walk reads
// at most 2 cells or subs rows more than the recursion alone did — the subs
// row and the root cell that ruled out a climb — and on every other pair no
// more than it. Its layer-0 finish climbs one side where the recursion
// climbed both, which pays for the certifying read where both sides enter
// the LCA through one node. The fixtures are a 20k-leaf Yule tree at f=16 and
// a balanced tree at f=2, where many pairs enter their LCA from both sides
// at once.
func TestLCAReadsBoundedByTheRecursion(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-node tree load")
	}
	for _, tc := range []struct {
		name string
		gen  func() (*phylo.Tree, error)
		f    int
	}{
		{"yule", func() (*phylo.Tree, error) { return treegen.Yule(20000, 1.0, rand.New(rand.NewSource(47))) }, 16},
		{"balanced", func() (*phylo.Tree, error) { return treegen.Balanced(12, rand.New(rand.NewSource(47))) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gold, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := core.Build(gold, tc.f)
			if err != nil {
				t.Fatal(err)
			}
			st := loadTree(t, gold, tc.f)
			ctx := context.Background()
			r := rand.New(rand.NewSource(48))
			var above, sumWalk, sumRecursion, worst int
			for i := 0; i < 2000; i++ {
				a, b := r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes())
				memo := newCellMemo(st)
				if _, err := st.lca(ctx, memo, a, b); err != nil {
					t.Fatal(err)
				}
				walk, rec := memo.reads, recursionReads(ix, a, b)
				memo.release()
				limit := rec
				if aboveLayerZero(ix, a, b) {
					limit += 2
					above++
					sumWalk += walk
					sumRecursion += rec
					worst = max(worst, walk-rec)
				}
				if walk > limit {
					t.Fatalf("LCA(%d,%d) read %d cells and subs rows, the recursion alone %d", a, b, walk, rec)
				}
			}
			if above == 0 {
				t.Fatal("no pair met above both endpoints' layer-0 subtrees")
			}
			t.Logf("%d pairs above layer 0: %.1f reads a pair, the recursion alone %.1f; at most %+d", above,
				float64(sumWalk)/float64(above), float64(sumRecursion)/float64(above), worst)
		})
	}
}

// TestDeepLCADescentCeiling pins the paper's cost claim on the stored
// engine with deterministic counters. On a caterpillar every LCA lies in the
// shallower endpoint's layer-0 subtree, so the walk proves it from layer 0
// alone: the two endpoint cells, at most one subs row and its root's cell,
// and a climb of at most f cells, mostly in the leaves the endpoints were
// read from. No upper layer is read, so the cost does not grow with the
// tree's depth: over 500 seeded pairs the mean is 2.6 descents at depth 2k
// (3 layers) and at depth 20k (4 layers), the worst pair 4 at both. The
// ceilings are absolute: a mean of 3 descents and no pair over 5. The layered
// recursion on its own, which read per layer up to 2f local cells, the 2
// query cells, the 2 entered source cells and 2 subs rows, took means of 6.0
// and 8.8 (worst 7 and 11), and the code that made a descent of every
// layer-0 read 13.7 and 16.4: both fail.
func TestDeepLCADescentCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-node tree load")
	}
	const (
		f            = 16
		meanDescents = 3.0
		maxDescents  = 5
	)
	layers := map[int]int{}
	for _, depth := range []int{2000, 20000} {
		gold, err := treegen.Caterpillar(depth, rand.New(rand.NewSource(51)))
		if err != nil {
			t.Fatal(err)
		}
		st := loadTree(t, gold, f)
		layers[depth] = st.Info().Layers
		r := rand.New(rand.NewSource(52))
		sum, worst := int64(0), int64(0)
		for i := 0; i < 500; i++ {
			a, b := r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes())
			ctx, span := counterCtx()
			if _, err := st.LCACtx(ctx, a, b); err != nil {
				t.Fatal(err)
			}
			d := total(span, "btree_descents")
			if d > maxDescents {
				t.Fatalf("depth %d: LCA(%d,%d) took %d descents, ceiling %d", depth, a, b, d, maxDescents)
			}
			sum += d
			worst = max(worst, d)
		}
		mean := float64(sum) / 500
		t.Logf("depth %d: %d layers, mean %.1f descents, worst %d", depth, layers[depth], mean, worst)
		if mean > meanDescents {
			t.Fatalf("depth %d: mean %.1f descents, want <= %.1f", depth, mean, meanDescents)
		}
	}
	if layers[2000] != 3 || layers[20000] != 4 {
		t.Fatalf("layers = %v, want 3 at depth 2k and 4 at depth 20k", layers)
	}
}

// TestSampleWithTimeDescents pins the frontier's cost: a k=50 sample beyond
// a time that about 2 000 nodes of the depth-20k caterpillar exceed takes 82
// descents, exactly. The nodes beyond the time come from the by_dist index
// keys alone, and of those the frontier reads one primary row per maximal
// node — here one, whose clade is one range scan — not one per candidate.
// Resolving every candidate's row through the index took 128.
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
	const want = 82
	d := total(span, "btree_descents")
	t.Logf("%d candidates, %d descents", candidates, d)
	if d != want {
		t.Fatalf("SampleWithTime took %d descents over %d candidates, want %d", d, candidates, want)
	}
}
