package treestore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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
// are deterministic — 273 descents, 18 966 cells with the cache, 61 266
// without — and the ceilings sit ~10% over them; the per-row path this
// replaced took 1 145 descents and 225 139 cells.
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

	st, err := s.Tree("big")
	if err != nil {
		t.Fatal(err)
	}
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
		maxDescents = 300
		maxCellsOn  = 21000
		maxCellsOff = 67000
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
// of B+tree descents: the cache size selects no query code.
func TestQueriesByteIdenticalAcrossCacheSizes(t *testing.T) {
	gold, err := treegen.Yule(2000, 1.0, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("t", gold, 4, nil); err != nil {
		t.Fatal(err)
	}
	base, err := s.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sel, err := base.SampleUniformCtx(ctx, 40, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(sel))
	for i, n := range sel {
		ids[i] = n.ID
	}

	type answers struct {
		project  *phylo.Tree
		export   *phylo.Tree
		clade    []Node
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
	for _, bytes := range []int64{64 << 10, 256 << 10, 64 << 20} {
		t.Run(fmt.Sprintf("cache=%d", bytes), func(t *testing.T) {
			s.dbs[0].Store().SetReadCacheBytes(bytes)
			tr, err := s.Tree("t")
			if err != nil {
				t.Fatal(err)
			}
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
				if len(got.clade) != len(want.clade) {
					t.Fatalf("pass %d: clade size %d != %d", pass, len(got.clade), len(want.clade))
				}
				for i := range got.clade {
					if got.clade[i] != want.clade[i] {
						t.Fatalf("pass %d: clade[%d] differs", pass, i)
					}
				}
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

// TestChildrenCtxOrdinalOrder pins the by_parent scan contract the sort
// removal relies on: children come back in ordinal order directly from the
// index scan.
func TestChildrenCtxOrdinalOrder(t *testing.T) {
	gold, err := treegen.Yule(300, 1.0, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st, err := s.Load("t", gold, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total := 0
	for id := 0; id < gold.NumNodes(); id++ {
		kids, err := st.ChildrenCtx(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for i, kid := range kids {
			if kid.Ord != i+1 {
				t.Fatalf("node %d child %d has ordinal %d, want %d", id, i, kid.Ord, i+1)
			}
			if kid.Parent != id {
				t.Fatalf("node %d child %d reports parent %d", id, i, kid.Parent)
			}
		}
		total += len(kids)
	}
	if total != gold.NumNodes()-1 {
		t.Fatalf("children total %d, want %d", total, gold.NumNodes()-1)
	}
}
