package treestore

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/treegen"
)

// TestCladeLeavesFromParents holds the rule cladeLeaves reads leaves by — a
// row is a leaf when the next row's parent is not that row, and a clade's
// last row always is — to the stored leaf flag. On Yule, birth-death,
// caterpillar, balanced, random-attach and multifurcating trees, each also
// with every third edge cut to length zero (adjacent clades, one scan), the
// leaves the frontier gives every clade it opens at every node's distance
// and more are the clade's rows whose flag is set; so are leafIDs' for the
// clade of every node, and for the whole tree they are Info().Leaves rows.
func TestCladeLeavesFromParents(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(*rand.Rand) (*phylo.Tree, error)
	}{
		{"yule", func(r *rand.Rand) (*phylo.Tree, error) { return treegen.Yule(150, 1, r) }},
		{"birth-death", func(r *rand.Rand) (*phylo.Tree, error) { return treegen.BirthDeath(100, 1, 0.4, true, r) }},
		{"caterpillar", func(r *rand.Rand) (*phylo.Tree, error) { return treegen.Caterpillar(90, r) }},
		{"balanced", func(r *rand.Rand) (*phylo.Tree, error) { return treegen.Balanced(6, r) }},
		{"random-attach", func(r *rand.Rand) (*phylo.Tree, error) { return treegen.RandomAttach(200, r) }},
		{"multifurcating", func(*rand.Rand) (*phylo.Tree, error) {
			return newick.Parse("((a:1,b:2,c:1,d:3):1,(e:1,(f:1,g:2,h:1):2,i:1,j:4):1,k:5,(l:1):2,((m:1,n:1,o:1,p:1,q:1):1):1,r:0.5);")
		}},
	}
	ctx := context.Background()
	for _, shape := range shapes {
		for _, zeros := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/zero-edges=%v", shape.name, zeros), func(t *testing.T) {
				r := rand.New(rand.NewSource(91))
				gold, err := shape.gen(r)
				if err != nil {
					t.Fatal(err)
				}
				if zeros {
					for _, n := range gold.Nodes() {
						if n.ID%3 == 1 {
							n.Length = 0
						}
					}
				}
				st := loadTree(t, gold, 4)
				var rows []Node
				if err := st.nodes.ScanCtx(ctx, appendNodes(&rows)); err != nil {
					t.Fatal(err)
				}
				// flagged is what the stored flag says of the rows [from, to).
				flagged := func(from, to int) []int {
					var ids []int
					for _, n := range rows[from:to] {
						if n.Leaf {
							ids = append(ids, n.ID)
						}
					}
					return ids
				}

				whole, err := st.leafIDs(ctx, Node{Size: st.Info().Nodes}, nil)
				if want := flagged(0, len(rows)); err != nil || !slices.Equal(whole, want) || len(whole) != st.Info().Leaves {
					t.Fatalf("the whole tree's leaves %v, %v; flagged %v, %d of them in the catalog", whole, err, want, st.Info().Leaves)
				}
				for _, n := range rows {
					got, err := st.leafIDs(ctx, n, nil)
					if want := flagged(n.ID, n.ID+n.Size); err != nil || !slices.Equal(got, want) {
						t.Fatalf("the clade of %d: leaves %v, %v; flagged %v", n.ID, got, err, want)
					}
				}

				times := []float64{-1}
				for _, n := range rows {
					times = append(times, n.Dist, n.Dist+r.Float64()*0.1)
				}
				opened := 0
				for _, time := range times {
					roots, groups, err := frontierAt(ctx, st, time)
					if err != nil {
						t.Fatalf("time %g: %v", time, err)
					}
					for i, root := range roots {
						if want := flagged(root, root+rows[root].Size); !slices.Equal(groups[i], want) {
							t.Fatalf("time %g: the clade of %d has leaves %v, flagged %v", time, root, groups[i], want)
						}
					}
					opened += len(roots)
				}
				if opened == 0 {
					t.Fatal("no threshold opened a clade")
				}
			})
		}
	}
}
