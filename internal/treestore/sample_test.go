package treestore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/phylo"
	"repro/internal/sample"
	"repro/internal/treegen"
)

// idsOf returns the ids of stored rows, which a sample returns in id order.
func idsOf(rows []Node) []int {
	ids := make([]int, len(rows))
	for i, n := range rows {
		ids[i] = n.ID
	}
	return ids
}

// TestTimeSampleMatchesInMemory checks the stored time-constrained sample,
// which draws on leaf ids and decodes only what it returns, against
// sample.WithRespectToTime on the same tree with the same seed: the same
// species or the same refusal, over three tree shapes (one with zero-length
// edges, where a node and its parent tie on distance), two fanouts, and
// times from before the root to past the last leaf.
func TestTimeSampleMatchesInMemory(t *testing.T) {
	shapes := map[string]func(*rand.Rand) (*phylo.Tree, error){
		"caterpillar": func(r *rand.Rand) (*phylo.Tree, error) { return treegen.Caterpillar(150, r) },
		"yule":        func(r *rand.Rand) (*phylo.Tree, error) { return treegen.Yule(200, 1, r) },
		"balanced": func(r *rand.Rand) (*phylo.Tree, error) {
			tr, err := treegen.Balanced(7, r)
			if err == nil {
				for _, n := range tr.Nodes() {
					if n.ID%3 == 0 {
						n.Length = 0
					}
				}
			}
			return tr, err
		},
	}
	ctx := context.Background()
	for shape, gen := range shapes {
		for _, f := range []int{4, 16} {
			t.Run(fmt.Sprintf("%s/f=%d", shape, f), func(t *testing.T) {
				gold, err := gen(rand.New(rand.NewSource(int64(61 + f))))
				if err != nil {
					t.Fatal(err)
				}
				st := loadTree(t, gold, f)
				dist := gold.RootDistances()
				height := 0.0
				for _, d := range dist {
					height = max(height, d)
				}
				for _, time := range []float64{-1, 0, 0.2 * height, 0.5 * height, 0.8 * height, 0.97 * height, height, 2 * height} {
					beyond := 0
					for _, fn := range sample.Frontier(gold, time) {
						for _, n := range gold.Nodes()[fn.ID:] {
							if phylo.LCA(fn, n) != fn {
								break // preorder: past the clade
							}
							if n.IsLeaf() {
								beyond++
							}
						}
					}
					for _, k := range []int{0, 1, 7, beyond / 2, beyond, beyond + 1} {
						for seed := int64(1); seed <= 3; seed++ {
							want, werr := sample.WithRespectToTime(gold, time, k, rand.New(rand.NewSource(seed)))
							got, gerr := st.SampleWithTimeCtx(ctx, time, k, rand.New(rand.NewSource(seed)))
							if werr != nil {
								if !errors.Is(gerr, ErrBadSample) {
									t.Fatalf("time %g k %d: in memory %v, stored %v, want ErrBadSample", time, k, werr, gerr)
								}
								continue
							}
							if gerr != nil {
								t.Fatalf("time %g k %d seed %d: stored %v, in memory %d species", time, k, seed, gerr, len(want))
							}
							wantIDs := make([]int, len(want))
							for i, n := range want {
								wantIDs[i] = n.ID
							}
							slices.Sort(wantIDs)
							if !slices.Equal(idsOf(got), wantIDs) {
								t.Fatalf("time %g k %d seed %d: stored %v, in memory %v", time, k, seed, idsOf(got), wantIDs)
							}
							for _, n := range got {
								if mem := gold.Nodes()[n.ID]; !n.Leaf || n.Name != mem.Name || n.Dist != dist[mem] {
									t.Fatalf("time %g k %d: sampled row %+v, the tree has %q at %g", time, k, n, mem.Name, dist[mem])
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestUniformSampleReplaysItsDraws checks the stored uniform sample, which
// judges a draw on its leaf flag and decodes only the leaves it keeps,
// against the draw it documents: rejection on the id space for a small k —
// replayed here on the in-memory tree — and sample.Uniform's partial shuffle
// of the leaves once k passes half of them.
func TestUniformSampleReplaysItsDraws(t *testing.T) {
	gold, err := treegen.Yule(300, 1, rand.New(rand.NewSource(71)))
	if err != nil {
		t.Fatal(err)
	}
	st := loadTree(t, gold, 4)
	nodes := gold.Nodes()
	for _, k := range []int{1, 20, 150, 151, 299, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			got, err := st.SampleUniformCtx(context.Background(), k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(seed))
			var want []int
			if 2*k > gold.NumLeaves() {
				sel, err := sample.Uniform(gold, k, r)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range sel {
					want = append(want, n.ID)
				}
			} else {
				for picked := map[int]bool{}; len(want) < k; {
					if id := r.Intn(len(nodes)); !picked[id] && nodes[id].IsLeaf() {
						picked[id] = true
						want = append(want, id)
					}
				}
			}
			slices.Sort(want)
			if !slices.Equal(idsOf(got), want) {
				t.Fatalf("k %d seed %d: stored %v, replayed %v", k, seed, idsOf(got), want)
			}
			for _, n := range got {
				if !n.Leaf || n.Name != nodes[n.ID].Name {
					t.Fatalf("k %d: sampled row %+v, the tree has %q", k, n, nodes[n.ID].Name)
				}
			}
		}
	}
}

// TestTimeSampleDecodesWhatItReturns pins what a time-constrained sample
// materialises on the depth-20k caterpillar: about 2 000 rows lie beyond the
// time and half of them are leaves it may draw, but it decodes a Node only
// for the frontier and for the k it returns. Every leaf carries a name, so a
// decoded leaf is an allocation, and a storage leaf the request descends to is
// at most three (the decoded page, its cell offsets, the cursor's path). So
// with the interior pages cached the call stays under k + |frontier| +
// 3 × descents plus a fixed few dozen (the id and quota slices, the request's
// readers, the spans) — under half of what the names of the drawable leaves
// alone would take; decoding every row beyond the frontier took 6 153.
// The fetch of the k is a stage of its own in the request's trace.
func TestTimeSampleDecodesWhatItReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-node tree load")
	}
	gold, err := treegen.Caterpillar(20000, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	t.Cleanup(func() { s.Close() })
	st := loadOpen(t, s, "t", gold, 16)
	s.dbs[0].Store().SetReadCacheBytes(64 << 20)
	ctx := context.Background()
	last, err := st.NodeCtx(ctx, gold.NumNodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	const k, fixed = 50, 48
	time := 0.95 * last.Dist
	frontier, err := st.FrontierCtx(ctx, time)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, fn := range frontier {
		ids, err := st.leafIDs(ctx, fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		leaves += len(ids)
	}
	if leaves < 10*k {
		t.Fatalf("%d leaves beyond the frontier, the fixture is meant to have about 1000", leaves)
	}
	sctx, span := counterCtx()
	if _, err := st.SampleWithTimeCtx(sctx, time, k, rand.New(rand.NewSource(54))); err != nil {
		t.Fatal(err)
	}
	descents := int(total(span, "btree_descents"))
	// The three stages account for the whole op: every page read and row
	// scanned is on one of them, none on the request's own span.
	var stages []string
	for _, ch := range span.Summary().Children {
		stages = append(stages, ch.Name)
	}
	if own := span.Summary().Counters; !slices.Equal(stages, []string{"frontier", "collect_leaves", "fetch_nodes"}) || own != nil {
		t.Fatalf("a traced sample has stages %v and %v outside them, want frontier, collect_leaves, fetch_nodes and nothing", stages, own)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if got, err := st.SampleWithTimeCtx(ctx, time, k, rand.New(rand.NewSource(54))); err != nil || len(got) != k {
			t.Fatalf("sampled %d species, %v", len(got), err)
		}
	})
	t.Logf("%d leaves beyond a frontier of %d: %d descents, %v allocations for k=%d", leaves, len(frontier), descents, allocs, k)
	if max := float64(k + len(frontier) + 3*descents + fixed); allocs > max || max > float64(leaves)/2 {
		t.Fatalf("a k=%d sample allocates %v times, want <= %v (and that under half the %d leaves): it decodes more rows than it returns", k, allocs, max, leaves)
	}
}
