package recon

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/seqsim"
	"repro/internal/treecmp"
	"repro/internal/treegen"
)

func TestParsimonyPerfectSignal(t *testing.T) {
	// Four taxa with sites that unambiguously support ((A,B),(C,D)).
	aln := &seqsim.Alignment{
		Names: []string{"A", "B", "C", "D"},
		Seqs: map[string][]byte{
			"A": []byte("AAAACCCC"),
			"B": []byte("AAAACCCC"),
			"C": []byte("TTTTGGGG"),
			"D": []byte("TTTTGGGG"),
		},
	}
	for seed := int64(0); seed < 5; seed++ {
		tr, err := Parsimony{Seed: seed}.ReconstructSeqs(aln)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		a := tr.NodeByName("A")
		b := tr.NodeByName("B")
		// A and B must be joined below the root (share a parent deeper
		// than the root) for every addition order.
		if a.Parent == tr.Root && b.Parent == tr.Root {
			t.Fatalf("seed %d: A and B both at root: %v", seed, tr.LeafNames())
		}
		score, err := fitchScore(tr, aln)
		if err != nil {
			t.Fatal(err)
		}
		// Every site needs one change on the internal edge of
		// ((A,B),(C,D)) — 8 total; the wrong topology would need 16.
		if score != 8 {
			t.Fatalf("seed %d: Fitch score = %d, want 8", seed, score)
		}
	}
}

func TestFitchScoreKnown(t *testing.T) {
	// ((A,B),(C,D)) with one site: A=C=x, B=D=y requires 2 changes.
	tr := mustTree(t, "((A:1,B:1):1,(C:1,D:1):1);")
	aln := &seqsim.Alignment{
		Names: []string{"A", "B", "C", "D"},
		Seqs: map[string][]byte{
			"A": []byte("A"), "B": []byte("T"), "C": []byte("A"), "D": []byte("T"),
		},
	}
	score, err := fitchScore(tr, aln)
	if err != nil {
		t.Fatal(err)
	}
	if score != 2 {
		t.Fatalf("Fitch = %d, want 2", score)
	}
	// The congruent labeling needs 1 change.
	aln.Seqs["B"] = []byte("A")
	aln.Seqs["C"] = []byte("T")
	score, err = fitchScore(tr, aln)
	if err != nil || score != 1 {
		t.Fatalf("Fitch = %d, %v, want 1", score, err)
	}
	// Missing data counts as compatible with anything.
	aln.Seqs["D"] = []byte("?")
	score, err = fitchScore(tr, aln)
	if err != nil || score != 1 {
		t.Fatalf("Fitch with ambiguity = %d, %v", score, err)
	}
	// Missing leaf sequence is an error.
	delete(aln.Seqs, "A")
	if _, err := fitchScore(tr, aln); err == nil {
		t.Fatal("missing sequence accepted")
	}
}

func TestParsimonyRecoversSimulatedTree(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	gold, err := treegen.Yule(12, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gold.Nodes() {
		if n.Parent != nil {
			n.Length *= 0.1 // low divergence: strong signal
		}
	}
	aln, err := seqsim.Evolve(gold, seqsim.Config{Length: 4000, Model: seqsim.JC69{}}, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Parsimony{Seed: 1}.ReconstructSeqs(aln)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := treecmp.NormalizedRFUnrooted(tr, gold)
	if err != nil {
		t.Fatal(err)
	}
	if norm > 0.35 {
		t.Fatalf("parsimony normalized RF = %g; topology mostly wrong", norm)
	}
	// The greedy tree must score no worse than a random caterpillar over
	// the same taxa.
	mpScore, err := fitchScore(tr, aln)
	if err != nil {
		t.Fatal(err)
	}
	goldScore, err := fitchScore(gold, aln)
	if err != nil {
		t.Fatal(err)
	}
	if float64(mpScore) > 1.3*float64(goldScore) {
		t.Fatalf("greedy score %d much worse than the true tree's %d", mpScore, goldScore)
	}
}

func TestParsimonyErrors(t *testing.T) {
	one := &seqsim.Alignment{Names: []string{"A"}, Seqs: map[string][]byte{"A": []byte("ACGT")}}
	if _, err := (Parsimony{}).ReconstructSeqs(one); err == nil {
		t.Fatal("single taxon accepted")
	}
	empty := &seqsim.Alignment{Names: []string{"A", "B"}, Seqs: map[string][]byte{"A": {}, "B": {}}}
	if _, err := (Parsimony{}).ReconstructSeqs(empty); err == nil {
		t.Fatal("empty sites accepted")
	}
}

func TestParsimonyDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	gold, _ := treegen.Yule(10, 1, r)
	aln, _ := seqsim.Evolve(gold, seqsim.Config{Length: 200, Model: seqsim.JC69{}}, r)
	a, err := Parsimony{Seed: 3}.ReconstructSeqs(aln)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parsimony{Seed: 3}.ReconstructSeqs(aln)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := treecmp.RobinsonFoulds(a, b)
	if err != nil || rf != 0 {
		t.Fatalf("same seed differs: RF=%d, %v", rf, err)
	}
}

func mustTree(t *testing.T, s string) *phylo.Tree {
	t.Helper()
	tr, err := newick.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fitchScore computes the parsimony score of a fixed tree against an
// alignment — the number of state changes the tree requires.
func fitchScore(t *phylo.Tree, aln *seqsim.Alignment) (int, error) {
	sites := aln.Len()
	if sites == 0 {
		return 0, errors.New("recon: empty alignment")
	}
	score := 0
	var fitch func(n *phylo.Node) (fitchSets, error)
	fitch = func(n *phylo.Node) (fitchSets, error) {
		if n.IsLeaf() {
			seq, ok := aln.Seqs[n.Name]
			if !ok {
				return nil, fmt.Errorf("recon: no sequence for leaf %q", n.Name)
			}
			fs := make(fitchSets, sites)
			for i := 0; i < sites; i++ {
				if b := seqsim.BaseIndex(seq[i]); b >= 0 {
					fs[i] = 1 << uint(b)
				} else {
					fs[i] = 0b1111
				}
			}
			return fs, nil
		}
		acc, err := fitch(n.Children[0])
		if err != nil {
			return nil, err
		}
		for _, c := range n.Children[1:] {
			next, err := fitch(c)
			if err != nil {
				return nil, err
			}
			acc = fitchMerge(acc, next, &score)
		}
		return acc, nil
	}
	if _, err := fitch(t.Root); err != nil {
		return 0, err
	}
	return score, nil
}
