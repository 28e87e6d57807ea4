package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dewey"
	"repro/internal/phylo"
)

// TestFigure4Decomposition reproduces Figure 4 of the paper: decomposing
// the Figure 1 tree with f=2 yields layer 0 subtrees {root,Syn,x,Bha,Bsu}
// and {y,Lla,Spy}, a two-node layer 1, and x as the source node of the
// split subtree (the dotted edge from node 6 to node 3).
func TestFigure4Decomposition(t *testing.T) {
	tr := phylo.PaperFigure1()
	ix, err := Build(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	if got := ix.NumLayers(); got != 2 {
		t.Fatalf("NumLayers = %d, want 2", got)
	}
	l0 := ix.Layers[0]
	if got := l0.numSubtrees(); got != 2 {
		t.Fatalf("layer 0 subtrees = %d, want 2", got)
	}
	lla := tr.NodeByName("Lla")
	spy := tr.NodeByName("Spy")
	y := lla.Parent
	x := y.Parent
	// Subtree 1 is rooted at y and was split off from x: x is its source.
	if got := l0.SubRoot[1]; got != int32(y.ID) {
		t.Fatalf("subtree 1 root = node %d, want y (%d)", got, y.ID)
	}
	if got := ix.sourceNode(1); got != x.ID {
		t.Fatalf("source of subtree 1 = %d, want x (%d)", got, x.ID)
	}
	// Membership.
	for _, name := range []string{"Syn", "Bha", "Bsu"} {
		if s := ix.subtree(tr.NodeByName(name).ID); s != 0 {
			t.Fatalf("%s in subtree %d, want 0", name, s)
		}
	}
	if ix.subtree(tr.Root.ID) != 0 || ix.subtree(x.ID) != 0 {
		t.Fatal("root/x not in subtree 0")
	}
	for _, n := range []*phylo.Node{y, lla, spy} {
		if s := ix.subtree(n.ID); s != 1 {
			t.Fatalf("node %d in subtree %d, want 1", n.ID, s)
		}
	}
	// Layer 1: two nodes, node 1's parent is node 0.
	l1 := ix.Layers[1]
	if l1.numNodes() != 2 || l1.Parent[1] != 0 || l1.Parent[0] != -1 {
		t.Fatalf("layer 1 malformed: %+v", l1)
	}
	// Every local label fits within f components.
	if got := ix.MaxLabelLen(); got > 2 {
		t.Fatalf("MaxLabelLen = %d exceeds f=2", got)
	}
}

// TestPaperCrossLayerLCA replays the paper's walkthrough: the LCA of Syn
// and Lla, which live in different subtrees, is found by recursing to
// layer 1 (nodes 5 and 6 in the paper), ascending Lla to x via the source
// node, and resolving locally to the root ("node 1").
func TestPaperCrossLayerLCA(t *testing.T) {
	tr := phylo.PaperFigure1()
	ix, err := Build(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	syn := tr.NodeByName("Syn")
	lla := tr.NodeByName("Lla")
	if got := ix.LCANodes(syn, lla); got != tr.Root {
		t.Fatalf("LCA(Syn, Lla) = %v, want root", got)
	}
	// LCA(Lla, Spy) stays inside subtree 1 and is y, full label 2.1.
	spy := tr.NodeByName("Spy")
	y := lla.Parent
	if got := ix.LCANodes(lla, spy); got != y {
		t.Fatalf("LCA(Lla, Spy) != y")
	}
	if got := ix.FullLabel(y.ID).String(); got != "2.1" {
		t.Fatalf("FullLabel(y) = %s, want 2.1", got)
	}
}

// TestFullLabelsMatchPlainDewey: the reconstruction across source chains
// must reproduce exactly the plain Dewey labels, including the paper's
// published Lla=2.1.1, Spy=2.1.2.
func TestFullLabelsMatchPlainDewey(t *testing.T) {
	tr := phylo.PaperFigure1()
	plain := dewey.BuildPlain(tr)
	for _, f := range []int{1, 2, 3, 10} {
		ix, err := Build(tr, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range tr.Nodes() {
			want := plain.Label(n.ID).String()
			if got := ix.FullLabel(n.ID).String(); got != want {
				t.Fatalf("f=%d FullLabel(%d) = %s, want %s", f, n.ID, got, want)
			}
		}
	}
	lla := tr.NodeByName("Lla")
	ix, _ := Build(tr, 2)
	if got := ix.FullLabel(lla.ID).String(); got != "2.1.1" {
		t.Fatalf("FullLabel(Lla) = %s, want 2.1.1", got)
	}
}

func TestBuildErrors(t *testing.T) {
	tr := phylo.PaperFigure1()
	if _, err := Build(tr, 0); err == nil {
		t.Fatal("Build with f=0 succeeded")
	}
	if _, err := Build(&phylo.Tree{}, 2); err == nil {
		t.Fatal("Build of empty tree succeeded")
	}
	// Unindexed IDs must be rejected.
	bad := phylo.PaperFigure1()
	bad.Root.ID = 999
	if _, err := Build(bad, 2); err == nil {
		t.Fatal("Build with broken IDs succeeded")
	}
}

func TestSingleNodeTree(t *testing.T) {
	tr := phylo.New(&phylo.Node{Name: "only"})
	tr.Reindex()
	ix, err := Build(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() != 1 || ix.LCA(0, 0) != 0 {
		t.Fatal("single-node index wrong")
	}
}

// randomTree builds a random tree with the given approximate size. Shapes
// vary from bushy to path-like so the decomposition sees deep chains.
func randomTree(r *rand.Rand, n int) *phylo.Tree {
	root := &phylo.Node{}
	nodes := []*phylo.Node{root}
	for len(nodes) < n {
		p := nodes[r.Intn(len(nodes))]
		c := &phylo.Node{Length: r.Float64()}
		p.AddChild(c)
		nodes = append(nodes, c)
	}
	for i, nd := range nodes {
		if nd.IsLeaf() {
			nd.Name = "t" + string(rune('A'+i%26)) + itoa(i)
		}
	}
	t := phylo.New(root)
	t.Reindex()
	return t
}

// caterpillar builds a maximally deep tree: depth ~ n. This is the shape
// on which plain Dewey labels blow up.
func caterpillar(n int) *phylo.Tree {
	root := &phylo.Node{}
	cur := root
	for i := 0; i < n; i++ {
		leaf := &phylo.Node{Name: "L" + itoa(i), Length: 1}
		next := &phylo.Node{Length: 1}
		cur.AddChild(leaf)
		cur.AddChild(next)
		cur = next
	}
	cur.Name = "tip"
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

// TestLCAMatchesNaive cross-checks hierarchical LCA against the pointer
// walk on random trees and random f (property-based).
func TestLCAMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 150+r.Intn(100))
		fanout := 1 + r.Intn(8)
		ix, err := Build(tr, fanout)
		if err != nil {
			t.Logf("Build: %v", err)
			return false
		}
		if err := ix.Check(); err != nil {
			t.Logf("Check: %v", err)
			return false
		}
		nodes := tr.Nodes()
		for i := 0; i < 200; i++ {
			a := nodes[r.Intn(len(nodes))]
			b := nodes[r.Intn(len(nodes))]
			want := phylo.LCA(a, b)
			if got := ix.LCANodes(a, b); got != want {
				t.Logf("seed %d f=%d: LCA(%d,%d) = %d, want %d", seed, fanout, a.ID, b.ID, got.ID, want.ID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFullLabelMatchesPlainProperty cross-checks label reconstruction on
// random trees.
func TestFullLabelMatchesPlainProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 100+r.Intn(80))
		fanout := 1 + r.Intn(6)
		ix, err := Build(tr, fanout)
		if err != nil {
			return false
		}
		plain := dewey.BuildPlain(tr)
		for _, n := range tr.Nodes() {
			if ix.FullLabel(n.ID).String() != plain.Label(n.ID).String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepTreeBoundedLabels(t *testing.T) {
	// Simulation trees have "average depth greater than 1000"; plain Dewey
	// labels grow with depth while hierarchical labels stay within f.
	tr := caterpillar(2000) // depth 2000
	for _, f := range []int{4, 16, 64} {
		ix, err := Build(tr, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Check(); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if got := ix.MaxLabelLen(); got > f {
			t.Fatalf("f=%d: MaxLabelLen = %d", f, got)
		}
		plain := dewey.BuildPlain(tr)
		if ix.TotalLabelBytes() >= plain.TotalLabelBytes() {
			t.Fatalf("f=%d: hierarchical labels (%d B) not smaller than plain (%d B)",
				f, ix.TotalLabelBytes(), plain.TotalLabelBytes())
		}
	}
	// Layer count grows logarithmically-ish: with f=16 and depth 2000,
	// expect a small stack, not hundreds.
	ix, _ := Build(tr, 16)
	if ix.NumLayers() > 6 {
		t.Fatalf("NumLayers = %d for depth 2000, f=16", ix.NumLayers())
	}
	// Spot-check LCA correctness on the deep tree.
	nodes := tr.Nodes()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a, b := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
		if ix.LCANodes(a, b) != phylo.LCA(a, b) {
			t.Fatalf("deep LCA mismatch at pair %d", i)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	tr := phylo.PaperFigure1()
	ix, _ := Build(tr, 2)
	lla := tr.NodeByName("Lla")
	x := lla.Parent.Parent
	isAncestor := func(a, b int) bool { return ix.LCA(a, b) == a } // the paper's identity
	if !isAncestor(tr.Root.ID, lla.ID) {
		t.Fatal("root not ancestor of Lla")
	}
	if !isAncestor(x.ID, lla.ID) {
		t.Fatal("x not ancestor of Lla (crosses subtree boundary)")
	}
	if isAncestor(lla.ID, x.ID) {
		t.Fatal("Lla ancestor of x")
	}
	if !isAncestor(lla.ID, lla.ID) {
		t.Fatal("self not ancestor-or-self")
	}
	syn := tr.NodeByName("Syn")
	if isAncestor(syn.ID, lla.ID) {
		t.Fatal("Syn ancestor of Lla")
	}
}

func TestStats(t *testing.T) {
	tr := caterpillar(500)
	ix, _ := Build(tr, 8)
	st := ix.Stats()
	if st.F != 8 || st.Nodes != tr.NumNodes() || st.Layers != ix.NumLayers() {
		t.Fatalf("Stats = %+v", st)
	}
	if len(st.Subtrees) != st.Layers || st.Subtrees[st.Layers-1] != 1 {
		t.Fatalf("Stats.Subtrees = %v", st.Subtrees)
	}
	if st.MaxLabelLen > 8 {
		t.Fatalf("Stats.MaxLabelLen = %d", st.MaxLabelLen)
	}
	if st.MaxTreeDepth != 500 {
		t.Fatalf("MaxTreeDepth = %d", st.MaxTreeDepth)
	}
}

// Check verifies index invariants against the tree: every local depth is
// within the bound, subtree roots have no local parent, source links point
// into the parent subtree, and the top layer is one subtree.
func (ix *Index) Check() error {
	for k, l := range ix.Layers {
		for i := range l.Parent {
			if int(l.LocalDepth[i]) > ix.F {
				return fmt.Errorf("core: layer %d node %d local depth %d exceeds f=%d", k, i, l.LocalDepth[i], ix.F)
			}
			if (l.LocalParent[i] == -1) != (l.SubRoot[l.Sub[i]] == int32(i)) {
				return fmt.Errorf("core: layer %d node %d subtree-root flag inconsistent", k, i)
			}
			if l.LocalParent[i] != -1 && l.Sub[l.LocalParent[i]] != l.Sub[i] {
				return fmt.Errorf("core: layer %d node %d local parent in other subtree", k, i)
			}
		}
		for s, src := range l.SubSource {
			if src == -1 {
				continue
			}
			if l.Parent[l.SubRoot[s]] != src {
				return fmt.Errorf("core: layer %d subtree %d source %d is not the root's parent", k, s, src)
			}
			if l.Sub[src] == int32(s) {
				return fmt.Errorf("core: layer %d subtree %d source inside itself", k, s)
			}
		}
	}
	if ix.Layers[len(ix.Layers)-1].numSubtrees() != 1 {
		return errors.New("core: top layer has more than one subtree")
	}
	return nil
}

// subtree returns the layer-0 subtree id containing node id.
func (ix *Index) subtree(id int) int { return int(ix.Layers[0].Sub[int32(id)]) }

// sourceNode returns the source node of layer-0 subtree s (the node the
// subtree was split off from), or -1 for the subtree holding the root.
func (ix *Index) sourceNode(s int) int { return int(ix.Layers[0].SubSource[s]) }
