package treegen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/phylo"
)

func TestYuleShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, err := Yule(100, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.NumLeaves(); got != 100 {
		t.Fatalf("leaves = %d", got)
	}
	// Binary interior nodes.
	for _, n := range tr.Nodes() {
		if !n.IsLeaf() && len(n.Children) != 2 {
			t.Fatalf("interior node with degree %d", len(n.Children))
		}
	}
	// Ultrametric: all leaves at the same root distance.
	dist := tr.RootDistances()
	var want float64
	first := true
	for _, l := range tr.Leaves() {
		if first {
			want = dist[l]
			first = false
			continue
		}
		if math.Abs(dist[l]-want) > 1e-9 {
			t.Fatalf("not ultrametric: %g vs %g", dist[l], want)
		}
	}
	if want <= 0 {
		t.Fatal("zero tree height")
	}
}

func TestYuleDeterministic(t *testing.T) {
	a, err := Yule(50, 2.0, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Yule(50, 2.0, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(a, b, 0) {
		t.Fatal("same seed produced different trees")
	}
	c, _ := Yule(50, 2.0, rand.New(rand.NewSource(8)))
	if phylo.Equal(a, c, 0) {
		t.Fatal("different seeds produced identical trees")
	}
}

func TestYuleErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := Yule(1, 1, r); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := Yule(10, 0, r); err == nil {
		t.Fatal("lambda=0 accepted")
	}
}

func TestBirthDeath(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr, err := BirthDeath(60, 1.0, 0.3, false, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.NumLeaves(); got != 60 {
		t.Fatalf("extant leaves = %d, want 60", got)
	}
	for _, name := range tr.LeafNames() {
		if len(name) >= 3 && name[:3] == "ext" {
			t.Fatalf("extinct leaf %s survived pruning", name)
		}
	}
	// With keepExtinct, extinct tips remain.
	r = rand.New(rand.NewSource(3))
	tr2, err := BirthDeath(60, 1.0, 0.3, true, r)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.NumLeaves() <= 60 {
		t.Skipf("no extinctions occurred for this seed") // extremely unlikely
	}
}

func TestBirthDeathParamValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := BirthDeath(10, 1.0, 1.0, false, r); err == nil {
		t.Fatal("mu >= lambda accepted")
	}
	if _, err := BirthDeath(10, 1.0, -0.1, false, r); err == nil {
		t.Fatal("negative mu accepted")
	}
}

func TestCaterpillarDepth(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, err := Caterpillar(500, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxDepth(); got != 500 {
		t.Fatalf("depth = %d, want 500", got)
	}
	if got := tr.NumLeaves(); got != 501 {
		t.Fatalf("leaves = %d, want 501", got)
	}
	_, max, mean := DepthStats(tr)
	if max != 500 || mean < 100 {
		t.Fatalf("DepthStats max=%d mean=%g", max, mean)
	}
}

func TestBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, err := Balanced(6, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.NumLeaves(); got != 64 {
		t.Fatalf("leaves = %d, want 64", got)
	}
	min, max, _ := DepthStats(tr)
	if min != 6 || max != 6 {
		t.Fatalf("depths = [%d,%d], want [6,6]", min, max)
	}
	if _, err := Balanced(0, r); err == nil {
		t.Fatal("depth 0 accepted")
	}
}

func TestRandomAttach(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, err := RandomAttach(300, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 300 {
		t.Fatalf("nodes = %d", tr.NumNodes())
	}
}

// TestGeneratorsProduceValidTrees property-checks all generators across
// seeds.
func TestGeneratorsProduceValidTrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(80)
		trees := make([]*phylo.Tree, 0, 4)
		if tr, err := Yule(n, 0.5+r.Float64()*2, r); err == nil {
			trees = append(trees, tr)
		} else {
			return false
		}
		if tr, err := BirthDeath(n, 1.0, 0.4*r.Float64(), r.Intn(2) == 0, r); err == nil {
			trees = append(trees, tr)
		} else {
			return false
		}
		if tr, err := Caterpillar(n, r); err == nil {
			trees = append(trees, tr)
		} else {
			return false
		}
		if tr, err := RandomAttach(n, r); err == nil {
			trees = append(trees, tr)
		} else {
			return false
		}
		for _, tr := range trees {
			if tr.Validate() != nil {
				return false
			}
			// IDs must be preorder-consistent for core.Build.
			for i, nd := range tr.Nodes() {
				if nd.ID != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
