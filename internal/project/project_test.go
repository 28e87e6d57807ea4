package project

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/phylo"
)

func figure1Planner(t *testing.T) (*phylo.Tree, *Planner) {
	t.Helper()
	tr := phylo.PaperFigure1()
	ix, err := core.Build(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr, NewPlanner(tr, ix)
}

// TestFigure2Projection reproduces Figure 2: projecting the Figure 1 tree
// over {Bha, Lla, Syn} yields root → (Syn, x), x → (Lla, Bha), with Lla's
// merged edge weight 1.5 + 1 = 2.5 ("as is the case with the parent of
// node Lla").
func TestFigure2Projection(t *testing.T) {
	tr, planner := figure1Planner(t)
	got, err := planner.ProjectNames([]string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves() != 3 {
		t.Fatalf("projection has %d leaves", got.NumLeaves())
	}
	// Root: two children, Syn and the interior x.
	if len(got.Root.Children) != 2 {
		t.Fatalf("projection root degree = %d, want 2", len(got.Root.Children))
	}
	syn := got.NodeByName("Syn")
	if syn == nil || syn.Parent != got.Root {
		t.Fatal("Syn not a child of the projection root")
	}
	if math.Abs(syn.Length-2.5) > 1e-12 {
		t.Fatalf("Syn edge = %g, want 2.5", syn.Length)
	}
	lla := got.NodeByName("Lla")
	bha := got.NodeByName("Bha")
	if lla.Parent != bha.Parent || lla.Parent == got.Root {
		t.Fatal("Lla and Bha must share the interior node x")
	}
	x := lla.Parent
	if x.Parent != got.Root {
		t.Fatal("x not a child of the root")
	}
	if math.Abs(x.Length-0.5) > 1e-12 {
		t.Fatalf("x edge = %g, want 0.5", x.Length)
	}
	// The unary-node merge: y was suppressed, so Lla's edge is 1.5+1.
	if math.Abs(lla.Length-2.5) > 1e-12 {
		t.Fatalf("Lla edge = %g, want 2.5 (= 1.5 + 1)", lla.Length)
	}
	if math.Abs(bha.Length-0.75) > 1e-12 {
		t.Fatalf("Bha edge = %g, want 0.75", bha.Length)
	}
	// Every interior node has out-degree > 1, as required of projections.
	for _, n := range got.Nodes() {
		if !n.IsLeaf() && len(n.Children) < 2 {
			t.Fatalf("projection contains unary node %v", n)
		}
	}
	// And the result agrees with the naive oracle.
	want, err := naive(tr, []*phylo.Node{tr.NodeByName("Bha"), tr.NodeByName("Lla"), tr.NodeByName("Syn")})
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(got, want, 1e-12) {
		t.Fatal("planner and naive projections differ")
	}
}

func TestProjectAllLeavesIsIdentityTopology(t *testing.T) {
	tr, planner := figure1Planner(t)
	got, err := planner.Project(tr.Leaves())
	if err != nil {
		t.Fatal(err)
	}
	// Projecting over all leaves reproduces the whole tree (no unary
	// nodes exist in Figure 1).
	if !phylo.Equal(got, tr, 1e-12) {
		t.Fatal("full projection differs from original")
	}
}

func TestProjectSingleton(t *testing.T) {
	tr, planner := figure1Planner(t)
	got, err := planner.Project([]*phylo.Node{tr.NodeByName("Spy")})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 1 || got.Root.Name != "Spy" {
		t.Fatalf("singleton projection = %v", got.Root)
	}
}

func TestProjectPair(t *testing.T) {
	_, planner := figure1Planner(t)
	got, err := planner.ProjectNames([]string{"Lla", "Spy"})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 3 || len(got.Root.Children) != 2 {
		t.Fatalf("pair projection shape wrong: %d nodes", got.NumNodes())
	}
	// Root is y; both edges have weight 1.
	for _, c := range got.Root.Children {
		if math.Abs(c.Length-1) > 1e-12 {
			t.Fatalf("edge %g, want 1", c.Length)
		}
	}
}

func TestProjectDeduplicates(t *testing.T) {
	tr, planner := figure1Planner(t)
	syn := tr.NodeByName("Syn")
	bha := tr.NodeByName("Bha")
	got, err := planner.Project([]*phylo.Node{syn, bha, syn, bha, syn})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves() != 2 {
		t.Fatalf("dedup failed: %d leaves", got.NumLeaves())
	}
}

func TestProjectErrors(t *testing.T) {
	_, planner := figure1Planner(t)
	if _, err := planner.Project(nil); err == nil {
		t.Fatal("empty selection succeeded")
	}
	if _, err := planner.ProjectNames([]string{"NotASpecies"}); err == nil {
		t.Fatal("unknown name succeeded")
	}
	foreign := &phylo.Node{Name: "foreign"}
	if _, err := planner.Project([]*phylo.Node{foreign}); err == nil {
		t.Fatal("foreign node succeeded")
	}
}

// TestMatchesNaiveProperty: on random trees and random leaf subsets the
// rightmost-path algorithm must agree with the definitional oracle.
func TestMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 80+r.Intn(120))
		ix, err := core.Build(tr, 1+r.Intn(6))
		if err != nil {
			return false
		}
		planner := NewPlanner(tr, ix)
		leaves := tr.Leaves()
		k := 1 + r.Intn(len(leaves))
		r.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		sel := leaves[:k]
		got, err := planner.Project(sel)
		if err != nil {
			t.Logf("Project: %v", err)
			return false
		}
		want, err := naive(tr, sel)
		if err != nil {
			t.Logf("naive: %v", err)
			return false
		}
		if !phylo.Equal(got, want, 1e-9) {
			t.Logf("seed %d k=%d: trees differ", seed, k)
			return false
		}
		for _, n := range got.Nodes() {
			if !n.IsLeaf() && len(n.Children) < 2 {
				t.Logf("seed %d: unary node in projection", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveLCAFinderWorks exercises the NaiveLCA adapter path.
func TestNaiveLCAFinderWorks(t *testing.T) {
	tr := phylo.PaperFigure1()
	planner := NewPlanner(tr, NaiveLCA{})
	got, err := planner.ProjectNames([]string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves() != 3 {
		t.Fatal("projection with naive LCA wrong")
	}
}

func randomTree(r *rand.Rand, n int) *phylo.Tree {
	root := &phylo.Node{}
	nodes := []*phylo.Node{root}
	for len(nodes) < n {
		p := nodes[r.Intn(len(nodes))]
		c := &phylo.Node{Length: r.Float64() + 0.01}
		p.AddChild(c)
		nodes = append(nodes, c)
	}
	i := 0
	for _, nd := range nodes {
		if nd.IsLeaf() {
			nd.Name = "t" + itoa(i)
			i++
		}
	}
	t := phylo.New(root)
	t.Reindex()
	return t
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// naive computes the projection by the direct definition — mark all
// root-paths of the selection, extract the induced subtree, then suppress
// unary nodes summing weights. O(n) per call; used as the oracle in
// property tests.
func naive(t *phylo.Tree, selection []*phylo.Node) (*phylo.Tree, error) {
	if len(selection) == 0 {
		return nil, errEmptySelection
	}
	keep := make(map[*phylo.Node]bool)
	for _, n := range selection {
		for cur := n; cur != nil; cur = cur.Parent {
			if keep[cur] {
				break
			}
			keep[cur] = true
		}
	}
	var build func(n *phylo.Node) *phylo.Node
	build = func(n *phylo.Node) *phylo.Node {
		m := &phylo.Node{Name: n.Name, Length: n.Length}
		for _, c := range n.Children {
			if keep[c] {
				m.AddChild(build(c))
			}
		}
		return m
	}
	out := phylo.New(build(t.Root))
	out.SuppressUnary()
	out.Root.Length = 0
	out.Reindex()
	return out, nil
}
