package phylo

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestPaperFigure1Shape(t *testing.T) {
	tr := PaperFigure1()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.NumLeaves(); got != 5 {
		t.Fatalf("NumLeaves = %d, want 5", got)
	}
	if got := tr.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got := tr.MaxDepth(); got != 3 {
		t.Fatalf("MaxDepth = %d, want 3", got)
	}
	wantNames := []string{"Syn", "Lla", "Spy", "Bha", "Bsu"}
	if got := tr.LeafNames(); len(got) != 5 {
		t.Fatalf("LeafNames = %v", got)
	} else {
		for i, n := range wantNames {
			if got[i] != n {
				t.Fatalf("leaf %d = %q, want %q (preorder)", i, got[i], n)
			}
		}
	}
	// Root distances drive the paper's time-sampling walkthrough.
	lla := tr.NodeByName("Lla")
	if lla == nil {
		t.Fatal("NodeByName(Lla) = nil")
	}
	y := lla.Parent
	dist := tr.RootDistances()
	cases := []struct {
		n    *Node
		want float64
	}{
		{tr.NodeByName("Syn"), 2.5},
		{tr.NodeByName("Bsu"), 1.25},
		{tr.NodeByName("Bha"), 1.25},
		{lla, 3.0},
		{y, 2.0},
		{y.Parent, 0.5}, // x
		{tr.Root, 0},
	}
	for _, c := range cases {
		if got := dist[c.n]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RootDistances()[%q] = %g, want %g", c.n.Name, got, c.want)
		}
	}
}

func TestReindexPreorder(t *testing.T) {
	tr := PaperFigure1()
	nodes := tr.Nodes()
	for i, n := range nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if n.Parent != nil && n.Parent.ID >= n.ID {
			t.Fatalf("preorder violated: parent %d >= child %d", n.Parent.ID, n.ID)
		}
	}
}

func TestNodeByNameAfterMutation(t *testing.T) {
	tr := PaperFigure1()
	if tr.NodeByName("Syn") == nil {
		t.Fatal("Syn missing")
	}
	tr.NodeByName("Syn").Name = "Renamed"
	tr.Mutated()
	if tr.NodeByName("Syn") != nil {
		t.Fatal("stale name lookup after Mutated")
	}
	if tr.NodeByName("Renamed") == nil {
		t.Fatal("new name not found after Mutated")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := PaperFigure1()
	cp := tr.Clone()
	if !Equal(tr, cp, 0) {
		t.Fatal("clone not equal to original")
	}
	cp.NodeByName("Bha").Length = 99
	if Equal(tr, cp, 0) {
		t.Fatal("mutating clone affected original comparison")
	}
	if tr.NodeByName("Bha").Length == 99 {
		t.Fatal("clone shares nodes with original")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	// Duplicate leaf names.
	a := &Node{Name: "A"}
	b := &Node{Name: "A"}
	root := &Node{}
	root.AddChild(a)
	root.AddChild(b)
	if err := New(root).Validate(); err == nil {
		t.Fatal("duplicate names passed Validate")
	}
	// Negative length.
	tr := PaperFigure1()
	tr.NodeByName("Bha").Length = -1
	if err := tr.Validate(); err == nil {
		t.Fatal("negative length passed Validate")
	}
	// Broken parent pointer.
	tr = PaperFigure1()
	tr.NodeByName("Bha").Parent = tr.Root
	if err := tr.Validate(); err == nil {
		t.Fatal("broken parent pointer passed Validate")
	}
	// Unnamed leaf.
	tr = PaperFigure1()
	tr.NodeByName("Bha").Name = ""
	tr.Mutated()
	if err := tr.Validate(); err == nil {
		t.Fatal("unnamed leaf passed Validate")
	}
	// Empty tree.
	if err := (&Tree{}).Validate(); err == nil {
		t.Fatal("empty tree passed Validate")
	}
	// A node reached twice: listed twice by one parent (Syn under the root),
	// listed by a second parent after its own (Bha under Bsu too), or listed
	// below itself (y under its child Lla). Each is an error, found at the
	// walk's second visit: none hangs or recurses without end.
	twice := PaperFigure1()
	twice.Root.Children = append(twice.Root.Children, twice.NodeByName("Syn"))
	dag := PaperFigure1()
	bsu := dag.NodeByName("Bsu")
	bsu.Children = append(bsu.Children, dag.NodeByName("Bha"))
	cycle := PaperFigure1()
	lla := cycle.NodeByName("Lla")
	lla.Children = append(lla.Children, lla.Parent)
	for name, tr := range map[string]*Tree{"listed twice": twice, "two parents": dag, "cycle": cycle} {
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "appears twice") {
			t.Errorf("%s: Validate = %v, want an appears-twice error", name, err)
		}
	}
}

// TestValidateMarksAgreeWithSets breaks a tree whose preorder is cached,
// so Validate marks visits by id and names by hash, in each way it can be
// broken — and scrambles its ids without breaking it — and requires the
// same verdict, word for word, as the walk over pointer and name sets it
// takes once the cache is dropped.
func TestValidateMarksAgreeWithSets(t *testing.T) {
	cases := map[string]func(tr *Tree){
		"intact":               func(tr *Tree) {},
		"duplicate leaf name":  func(tr *Tree) { tr.NodeByName("Bha").Name = "Syn" },
		"negative length":      func(tr *Tree) { tr.NodeByName("Lla").Length = -2 },
		"wrong parent pointer": func(tr *Tree) { tr.NodeByName("Bha").Parent = tr.Root },
		"unnamed leaf":         func(tr *Tree) { tr.NodeByName("Spy").Name = "" },
		"listed twice":         func(tr *Tree) { tr.Root.Children = append(tr.Root.Children, tr.NodeByName("Syn")) },
		"cycle": func(tr *Tree) {
			lla := tr.NodeByName("Lla")
			lla.Children = append(lla.Children, lla.Parent)
		},
		"ids permuted": func(tr *Tree) {
			a, b := tr.NodeByName("Bha"), tr.NodeByName("Syn")
			a.ID, b.ID = b.ID, a.ID
		},
		"ids repeated":     func(tr *Tree) { tr.NodeByName("Bha").ID = tr.NodeByName("Syn").ID },
		"ids out of range": func(tr *Tree) { tr.NodeByName("Bha").ID = -1 },
	}
	for name, breakIt := range cases {
		tr := PaperFigure1()
		tr.Reindex()
		tr.Nodes()
		breakIt(tr)
		marked := fmt.Sprint(tr.Validate())
		tr.Mutated()
		if sets := fmt.Sprint(tr.Validate()); marked != sets {
			t.Errorf("%s: Validate with marks = %s, with sets = %s", name, marked, sets)
		}
		if (name == "intact" || strings.HasPrefix(name, "ids")) != (marked == "<nil>") {
			t.Errorf("%s: Validate = %s", name, marked)
		}
	}
}

func TestSuppressUnary(t *testing.T) {
	// root -> a(1) -> b(2) -> leaf(3); plus root -> other(5)
	leaf := &Node{Name: "L", Length: 3}
	b := &Node{Length: 2}
	b.AddChild(leaf)
	a := &Node{Length: 1}
	a.AddChild(b)
	other := &Node{Name: "O", Length: 5}
	root := &Node{}
	root.AddChild(a)
	root.AddChild(other)
	tr := New(root)
	tr.SuppressUnary()
	if got := tr.NumNodes(); got != 3 {
		t.Fatalf("NumNodes after suppress = %d, want 3", got)
	}
	l := tr.NodeByName("L")
	if l.Parent != tr.Root {
		t.Fatal("L not attached to root")
	}
	if math.Abs(l.Length-6) > 1e-12 { // 1+2+3 summed
		t.Fatalf("L length = %g, want 6", l.Length)
	}
}

func TestSuppressUnaryRootChain(t *testing.T) {
	// A chain above the first branching point is removed entirely.
	x := &Node{Name: "X", Length: 1}
	y := &Node{Name: "Y", Length: 1}
	branch := &Node{Length: 4}
	branch.AddChild(x)
	branch.AddChild(y)
	mid := &Node{Length: 2}
	mid.AddChild(branch)
	root := &Node{}
	root.AddChild(mid)
	tr := New(root)
	tr.SuppressUnary()
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root degree = %d, want 2", len(tr.Root.Children))
	}
	if tr.Root.Parent != nil {
		t.Fatal("new root keeps a parent")
	}
	if tr.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", tr.NumNodes())
	}
}

func TestSortChildrenCanonical(t *testing.T) {
	t1 := PaperFigure1()
	t2 := PaperFigure1()
	// Reverse child order everywhere in t2.
	for _, n := range t2.Nodes() {
		for i, j := 0, len(n.Children)-1; i < j; i, j = i+1, j-1 {
			n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
		}
	}
	t2.Mutated()
	if Equal(t1, t2, 0) {
		t.Fatal("reversed tree compares equal before sorting")
	}
	if !Equal(t1.SortChildren(), t2.SortChildren(), 0) {
		t.Fatal("canonical sort did not make trees equal")
	}
}

func TestEqualTolerance(t *testing.T) {
	t1 := PaperFigure1()
	t2 := PaperFigure1()
	t2.NodeByName("Bha").Length += 1e-9
	if Equal(t1, t2, 0) {
		t.Fatal("trees equal despite length difference at eps=0")
	}
	if !Equal(t1, t2, 1e-6) {
		t.Fatal("trees unequal despite tolerance")
	}
}

func TestDepth(t *testing.T) {
	tr := PaperFigure1()
	if d := Depth(tr.Root); d != 0 {
		t.Fatalf("Depth(root) = %d", d)
	}
	if d := Depth(tr.NodeByName("Lla")); d != 3 {
		t.Fatalf("Depth(Lla) = %d, want 3", d)
	}
}

// TestNodeByNameConcurrentFirstUse: the preorder list and the name lookup
// are built on first use, and several readers may be the first at once
// (perfbench's clients resolve names on one shared tree). Each must get its
// answer from a complete list and map, never a fatal "concurrent map read
// and map write". Run under -race.
func TestNodeByNameConcurrentFirstUse(t *testing.T) {
	root := &Node{Name: "root"}
	for i := 0; i < 2000; i++ {
		root.AddChild(&Node{Name: fmt.Sprintf("leaf%04d", i)})
	}
	tr := New(root) // nothing built yet
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 2000; i += 8 {
				name := fmt.Sprintf("leaf%04d", i)
				if n := tr.NodeByName(name); n == nil || n.Name != name {
					t.Errorf("NodeByName(%q) = %v", name, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
