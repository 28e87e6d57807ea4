package treecmp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/phylo"
	"repro/internal/treegen"
)

// TestScoringMetamorphic holds the scoring math to the laws a benchmark
// result rests on, since a wrong evaluator silently invalidates every result
// (a majority-rule consensus emitting bipartitions present in no input tree
// is such a bug in another phylogenetics codebase). Over pools of trees on
// one leaf set — treegen shapes, their leaves relabelled, near copies with a
// few leaf names swapped, and copies with internal edges contracted — rooted and unrooted RF are zero between a
// tree and its children reordered, symmetric, and obey the triangle
// inequality; a zero rooted distance is a zero unrooted one; both
// normalized distances lie in [0, 1]; and the majority consensus of every
// prefix of the pool has exactly the clades present in more than half its
// trees, and only bipartitions present in more than half.
func TestScoringMetamorphic(t *testing.T) {
	const leaves = 16
	r := rand.New(rand.NewSource(91))
	shapes := []func() (*phylo.Tree, error){
		func() (*phylo.Tree, error) { return treegen.Yule(leaves, 1, r) },
		func() (*phylo.Tree, error) { return treegen.Caterpillar(leaves-1, r) },
		func() (*phylo.Tree, error) { return treegen.Balanced(4, r) },
		func() (*phylo.Tree, error) { return treegen.BirthDeath(leaves, 1, 0.3, false, r) },
	}
	for trial := 0; trial < 8; trial++ {
		var pool []*phylo.Tree
		for _, shape := range shapes {
			tr, err := shape()
			if err != nil {
				t.Fatal(err)
			}
			if tr.NumLeaves() != leaves {
				t.Fatalf("trial %d: a shape has %d leaves, want %d", trial, tr.NumLeaves(), leaves)
			}
			pool = append(pool, tr)
		}
		names := pool[0].LeafNames()
		for i, tr := range pool {
			pool[i] = relabel(tr, names, r.Perm(leaves))
		}
		base := pool[r.Intn(len(pool))]
		for swaps := 1; swaps <= 3; swaps++ {
			perm := r.Perm(leaves)
			keep := make([]int, leaves)
			for i := range keep {
				keep[i] = i
			}
			for s := 0; s < swaps; s++ {
				keep[perm[2*s]], keep[perm[2*s+1]] = keep[perm[2*s+1]], keep[perm[2*s]]
			}
			pool = append(pool, relabel(base, base.LeafNames(), keep))
		}
		// Multifurcations: trees with fewer splits than the binary ones, so a
		// one-sided difference count is not symmetric by accident.
		pool = append(pool, collapse(base, 1, r), collapse(pool[1], 5, r))

		for _, a := range pool {
			mirror := a.Clone()
			for _, n := range mirror.Nodes() {
				slices.Reverse(n.Children)
			}
			mirror.Mutated()
			for _, rf := range []func(a, b *phylo.Tree) (int, error){RobinsonFoulds, RobinsonFouldsUnrooted} {
				if d := mustRF(t, rf, a, mirror); d != 0 {
					t.Fatalf("trial %d: a tree and its children reordered are %d apart", trial, d)
				}
			}
		}
		for _, a := range pool {
			for _, b := range pool {
				if mustRF(t, RobinsonFoulds, a, b) == 0 && mustRF(t, RobinsonFouldsUnrooted, a, b) != 0 {
					t.Fatalf("trial %d: rooted RF 0 but unrooted RF %d", trial, mustRF(t, RobinsonFouldsUnrooted, a, b))
				}
				if v, err := NormalizedRFUnrooted(a, b); err != nil || v < 0 || v > 1 {
					t.Fatalf("trial %d: normalized RF %v, %v, want in [0, 1]", trial, v, err)
				}
				for _, rf := range []func(a, b *phylo.Tree) (int, error){RobinsonFoulds, RobinsonFouldsUnrooted} {
					ab, ba := mustRF(t, rf, a, b), mustRF(t, rf, b, a)
					if ab != ba {
						t.Fatalf("trial %d: RF(a,b) = %d, RF(b,a) = %d", trial, ab, ba)
					}
					for _, c := range pool {
						if ac, bc := mustRF(t, rf, a, c), mustRF(t, rf, b, c); ac > ab+bc {
							t.Fatalf("trial %d: RF(a,c) = %d > RF(a,b) + RF(b,c) = %d + %d", trial, ac, ab, bc)
						}
					}
				}
			}
		}

		for n := 1; n <= len(pool); n++ {
			in := pool[:n]
			cons, err := MajorityConsensus(in)
			if err != nil {
				t.Fatalf("trial %d: consensus of %d trees: %v", trial, n, err)
			}
			if err := cons.Validate(); err != nil {
				t.Fatalf("trial %d: consensus of %d trees: %v", trial, n, err)
			}
			inMajority, splits := majority(in, clades), majority(in, bipartitions)
			got := clades(cons)
			if len(got) != len(inMajority) {
				t.Fatalf("trial %d: consensus of %d trees has %d clades, %d are in a majority", trial, n, len(got), len(inMajority))
			}
			for c := range got {
				if !inMajority[c] {
					t.Fatalf("trial %d: consensus of %d trees has clade %q, in no majority of them", trial, n, c)
				}
			}
			for s := range bipartitions(cons) {
				if !splits[s] {
					t.Fatalf("trial %d: consensus of %d trees has split %q, in no majority of them", trial, n, s)
				}
			}
		}
	}
}

// relabel is a copy of tr whose i-th leaf in preorder carries names[perm[i]].
func relabel(tr *phylo.Tree, names []string, perm []int) *phylo.Tree {
	out := tr.Clone()
	for i, l := range out.Leaves() {
		l.Name = names[perm[i]]
	}
	out.Mutated()
	return out
}

// collapse is a copy of tr with k random internal edges contracted: the
// child's children move up to its parent, and the child's clade is gone.
func collapse(tr *phylo.Tree, k int, r *rand.Rand) *phylo.Tree {
	out := tr.Clone()
	for ; k > 0; k-- {
		var inner []*phylo.Node
		for _, n := range out.Nodes() {
			if n.Parent != nil && !n.IsLeaf() {
				inner = append(inner, n)
			}
		}
		n := inner[r.Intn(len(inner))]
		p := n.Parent
		p.Children = slices.DeleteFunc(p.Children, func(c *phylo.Node) bool { return c == n })
		for _, c := range slices.Clone(n.Children) {
			c.Length += n.Length
			p.AddChild(c)
		}
		out.Mutated()
	}
	return out
}

// majority is the set of keys present in more than half of the trees.
func majority(trees []*phylo.Tree, keys func(*phylo.Tree) map[string]bool) map[string]bool {
	count := map[string]int{}
	for _, tr := range trees {
		for k := range keys(tr) {
			count[k]++
		}
	}
	out := map[string]bool{}
	for k, n := range count {
		if 2*n > len(trees) {
			out[k] = true
		}
	}
	return out
}

func mustRF(t *testing.T, rf func(a, b *phylo.Tree) (int, error), a, b *phylo.Tree) int {
	t.Helper()
	d, err := rf(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
