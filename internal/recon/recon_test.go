package recon

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/distance"
	"repro/internal/phylo"
	"repro/internal/seqsim"
	"repro/internal/treecmp"
	"repro/internal/treegen"
)

// pathMatrix computes the additive path-length matrix of a tree.
func pathMatrix(t *phylo.Tree) *distance.Matrix {
	leaves := t.Leaves()
	names := make([]string, len(leaves))
	for i, l := range leaves {
		names[i] = l.Name
	}
	dist := t.RootDistances()
	m := distance.New(names)
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			l := phylo.LCA(leaves[i], leaves[j])
			m.Set(i, j, dist[leaves[i]]+dist[leaves[j]]-2*dist[l])
		}
	}
	return m
}

func TestUPGMARecoversUltrametricTree(t *testing.T) {
	// UPGMA is exact on ultrametric (clock-like) distances; a Yule tree
	// is ultrametric.
	tr, err := treegen.Yule(40, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	m := pathMatrix(tr)
	got, err := UPGMA{}.Reconstruct(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	rf, err := treecmp.RobinsonFoulds(got, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Fatalf("UPGMA RF = %d on ultrametric input, want 0", rf)
	}
}

func TestNJRecoversAdditiveTree(t *testing.T) {
	// NJ is exact on any additive matrix, clock or not. Perturb the Yule
	// tree's branch lengths to break the clock.
	r := rand.New(rand.NewSource(2))
	tr, err := treegen.Yule(30, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() {
		if n.Parent != nil {
			n.Length = n.Length*r.Float64()*2 + 0.01
		}
	}
	m := pathMatrix(tr)
	got, err := NeighborJoining{}.Reconstruct(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	rf, err := treecmp.RobinsonFouldsUnrooted(got, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Fatalf("NJ unrooted RF = %d on additive input, want 0", rf)
	}
}

func TestUPGMABeatenByNJWithoutClock(t *testing.T) {
	// With a strongly violated clock, UPGMA errs while NJ stays exact —
	// the qualitative separation benchmark experiments should show.
	r := rand.New(rand.NewSource(3))
	fails := 0
	for trial := 0; trial < 5; trial++ {
		tr, err := treegen.Yule(25, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range tr.Nodes() {
			if n.Parent != nil {
				n.Length = 0.01 + r.ExpFloat64()*0.5 // wildly non-clock
			}
		}
		m := pathMatrix(tr)
		up, err := UPGMA{}.Reconstruct(m)
		if err != nil {
			t.Fatal(err)
		}
		rfU, _ := treecmp.RobinsonFouldsUnrooted(up, tr)
		nj, err := NeighborJoining{}.Reconstruct(m)
		if err != nil {
			t.Fatal(err)
		}
		rfN, _ := treecmp.RobinsonFouldsUnrooted(nj, tr)
		if rfN != 0 {
			t.Fatalf("NJ not exact on additive matrix (RF=%d)", rfN)
		}
		if rfU > 0 {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("UPGMA never erred under clock violation across 5 trials")
	}
}

func TestTwoAndThreeTaxa(t *testing.T) {
	m := distance.New([]string{"a", "b"})
	m.Set(0, 1, 2.0)
	for _, alg := range []Algorithm{UPGMA{}, NeighborJoining{}} {
		tr, err := alg.Reconstruct(m)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if tr.NumLeaves() != 2 {
			t.Fatalf("%s: %d leaves", alg.Name(), tr.NumLeaves())
		}
	}
	m3 := distance.New([]string{"a", "b", "c"})
	m3.Set(0, 1, 2)
	m3.Set(0, 2, 4)
	m3.Set(1, 2, 4)
	for _, alg := range []Algorithm{UPGMA{}, NeighborJoining{}} {
		tr, err := alg.Reconstruct(m3)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if tr.NumLeaves() != 3 {
			t.Fatalf("%s: %d leaves", alg.Name(), tr.NumLeaves())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
	// UPGMA heights: a,b join at height 1; c joins at height 2.
	up, _ := UPGMA{}.Reconstruct(m3)
	c := up.NodeByName("c")
	if math.Abs(c.Length-2) > 1e-9 {
		t.Fatalf("UPGMA c branch = %g, want 2", c.Length)
	}
}

func TestTooFew(t *testing.T) {
	m := distance.New([]string{"a"})
	for _, alg := range []Algorithm{UPGMA{}, NeighborJoining{}} {
		if _, err := alg.Reconstruct(m); err == nil {
			t.Fatalf("%s accepted 1 taxon", alg.Name())
		}
	}
}

func TestByName(t *testing.T) {
	algs, seqAlgs, err := ByNames([]string{"NJ", "mp", "nj", "UPGMA", "MP", "upgma"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range algs {
		got = append(got, a.Name())
	}
	for _, a := range seqAlgs {
		got = append(got, a.Name())
	}
	if want := []string{"NJ", "NJ", "UPGMA", "UPGMA", "MP", "MP"}; !slices.Equal(got, want) {
		t.Fatalf("ByNames = %v, want %v", got, want)
	}
	if seqAlgs[0] != (Parsimony{Seed: 3}) {
		t.Fatalf("MP = %+v, want parsimony on the request's seed", seqAlgs[0])
	}
	if _, _, err := ByNames([]string{"NJ", "maximum-likelihood"}, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestNJExactOnRandomAdditive property-checks NJ against random additive
// matrices derived from random trees.
func TestNJExactOnRandomAdditive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, err := treegen.Yule(5+r.Intn(30), 1, r)
		if err != nil {
			return false
		}
		for _, n := range tr.Nodes() {
			if n.Parent != nil {
				n.Length = 0.05 + r.Float64()
			}
		}
		m := pathMatrix(tr)
		got, err := NeighborJoining{}.Reconstruct(m)
		if err != nil {
			return false
		}
		rf, err := treecmp.RobinsonFouldsUnrooted(got, tr)
		return err == nil && rf == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReconstructionFromSequences runs the full distance pipeline: noisy
// sequence data should still give a mostly correct topology with enough
// sites.
func TestReconstructionFromSequences(t *testing.T) {
	tr, err := treegen.Yule(20, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	// Keep branches short enough to avoid saturation.
	for _, n := range tr.Nodes() {
		if n.Parent != nil {
			n.Length *= 0.3
		}
	}
	aln, err := seqsim.Evolve(tr, seqsim.Config{Length: 5000, Model: seqsim.JC69{}}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := distance.JC(aln)
	if err != nil {
		t.Fatal(err)
	}
	nj, err := NeighborJoining{}.Reconstruct(m)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := treecmp.NormalizedRFUnrooted(nj, tr)
	if err != nil {
		t.Fatal(err)
	}
	if norm > 0.2 {
		t.Fatalf("NJ normalized RF = %g from 5000 sites; topology mostly wrong", norm)
	}
}
