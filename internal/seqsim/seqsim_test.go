package seqsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/phylo"
	"repro/internal/treegen"
)

func checkStochasticMatrix(t *testing.T, m Model, bt float64) {
	t.Helper()
	p := m.probabilities(bt)
	for i := 0; i < 4; i++ {
		sum := 0.0
		for j := 0; j < 4; j++ {
			if p[i][j] < -1e-12 || p[i][j] > 1+1e-12 {
				t.Fatalf("%s P(%g)[%d][%d] = %g out of [0,1]", m.Name(), bt, i, j, p[i][j])
			}
			sum += p[i][j]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s P(%g) row %d sums to %g", m.Name(), bt, i, sum)
		}
	}
}

func TestModelsAreStochastic(t *testing.T) {
	models := []Model{
		JC69{},
		K2P{Kappa: 2},
		K2P{Kappa: 10},
		HKY85{Kappa: 2, BaseFreqs: [4]float64{0.1, 0.2, 0.3, 0.4}},
		HKY85{Kappa: 5, BaseFreqs: [4]float64{0.25, 0.25, 0.25, 0.25}},
	}
	for _, m := range models {
		for _, bt := range []float64{0, 0.01, 0.1, 1, 10, 100} {
			checkStochasticMatrix(t, m, bt)
		}
	}
}

func TestZeroTimeIsIdentity(t *testing.T) {
	models := []Model{JC69{}, K2P{Kappa: 2}, HKY85{Kappa: 2, BaseFreqs: [4]float64{0.1, 0.2, 0.3, 0.4}}}
	for _, m := range models {
		p := m.probabilities(0)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(p[i][j]-want) > 1e-9 {
					t.Fatalf("%s P(0)[%d][%d] = %g", m.Name(), i, j, p[i][j])
				}
			}
		}
	}
}

func TestLongTimeReachesEquilibrium(t *testing.T) {
	models := []Model{JC69{}, K2P{Kappa: 3}, HKY85{Kappa: 2, BaseFreqs: [4]float64{0.1, 0.2, 0.3, 0.4}}}
	for _, m := range models {
		p := m.probabilities(500)
		freqs := m.freqs()
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if math.Abs(p[i][j]-freqs[j]) > 1e-6 {
					t.Fatalf("%s P(inf)[%d][%d] = %g, want %g", m.Name(), i, j, p[i][j], freqs[j])
				}
			}
		}
	}
}

// TestModelNesting: JC69 = K2P(kappa=1) = HKY85(kappa=1, uniform), and
// K2P(kappa) = HKY85(kappa, uniform).
func TestModelNesting(t *testing.T) {
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	for _, bt := range []float64{0.05, 0.3, 1.2} {
		jc := JC69{}.probabilities(bt)
		k1 := K2P{Kappa: 1}.probabilities(bt)
		h1 := HKY85{Kappa: 1, BaseFreqs: uniform}.probabilities(bt)
		k3 := K2P{Kappa: 3}.probabilities(bt)
		h3 := HKY85{Kappa: 3, BaseFreqs: uniform}.probabilities(bt)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if math.Abs(jc[i][j]-k1[i][j]) > 1e-9 {
					t.Fatalf("JC vs K2P(1) at t=%g [%d][%d]: %g vs %g", bt, i, j, jc[i][j], k1[i][j])
				}
				if math.Abs(jc[i][j]-h1[i][j]) > 1e-9 {
					t.Fatalf("JC vs HKY(1) at t=%g [%d][%d]: %g vs %g", bt, i, j, jc[i][j], h1[i][j])
				}
				if math.Abs(k3[i][j]-h3[i][j]) > 1e-9 {
					t.Fatalf("K2P(3) vs HKY(3) at t=%g [%d][%d]: %g vs %g", bt, i, j, k3[i][j], h3[i][j])
				}
			}
		}
	}
}

// TestBranchLengthIsExpectedSubstitutions: on a 2-leaf tree with branch
// length d under JC69, the observed proportion of differing sites should
// approximate the JC expected p = 3/4(1 - e^{-4d/3}).
func TestBranchLengthIsExpectedSubstitutions(t *testing.T) {
	a := &phylo.Node{Name: "a", Length: 0.25}
	b := &phylo.Node{Name: "b", Length: 0.25}
	root := &phylo.Node{}
	root.AddChild(a)
	root.AddChild(b)
	tr := phylo.New(root)
	tr.Reindex()

	r := rand.New(rand.NewSource(11))
	aln, err := Evolve(tr, Config{Length: 200_000, Model: JC69{}}, r)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := aln.Seqs["a"], aln.Seqs["b"]
	diff := 0
	for i := range sa {
		if sa[i] != sb[i] {
			diff++
		}
	}
	p := float64(diff) / float64(len(sa))
	d := 0.5 // total path a-b
	want := 0.75 * (1 - math.Exp(-4*d/3))
	if math.Abs(p-want) > 0.01 {
		t.Fatalf("observed p = %g, want ~%g", p, want)
	}
}

func TestEvolveDeterministic(t *testing.T) {
	tr, _ := treegen.Yule(20, 1, rand.New(rand.NewSource(2)))
	cfg := Config{Length: 100, Model: K2P{Kappa: 2}}
	a, err := Evolve(tr, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evolve(tr, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for name := range a.Seqs {
		if string(a.Seqs[name]) != string(b.Seqs[name]) {
			t.Fatalf("same seed, different sequences for %s", name)
		}
	}
}

func TestEvolveCoversAllLeaves(t *testing.T) {
	tr, _ := treegen.Yule(37, 1, rand.New(rand.NewSource(2)))
	aln, err := Evolve(tr, Config{Length: 50, Model: JC69{}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(aln.Names) != 37 || aln.Len() != 50 {
		t.Fatalf("alignment %d x %d", len(aln.Names), aln.Len())
	}
	for _, name := range tr.LeafNames() {
		seq, ok := aln.Seqs[name]
		if !ok || len(seq) != 50 {
			t.Fatalf("leaf %s missing or wrong length", name)
		}
		for _, b := range seq {
			if BaseIndex(b) < 0 {
				t.Fatalf("bad base %q", b)
			}
		}
	}
}

func TestEvolveFixedRoot(t *testing.T) {
	tr, _ := treegen.Yule(5, 1, rand.New(rand.NewSource(2)))
	rootSeq := []byte("ACGTACGTAC")
	// Zero out branch lengths: all leaves must equal the root sequence.
	for _, n := range tr.Nodes() {
		n.Length = 0
	}
	aln, err := Evolve(tr, Config{Length: 10, Model: JC69{}, Root: rootSeq}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for name, seq := range aln.Seqs {
		if string(seq) != string(rootSeq) {
			t.Fatalf("leaf %s = %s, want root %s", name, seq, rootSeq)
		}
	}
}

func TestEvolveErrors(t *testing.T) {
	tr, _ := treegen.Yule(5, 1, rand.New(rand.NewSource(2)))
	r := rand.New(rand.NewSource(1))
	if _, err := Evolve(tr, Config{Length: 10}, r); err == nil {
		t.Fatal("missing model accepted")
	}
	if _, err := Evolve(tr, Config{Length: 0, Model: JC69{}}, r); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := Evolve(tr, Config{Length: 5, Model: JC69{}, Root: []byte("AC")}, r); err == nil {
		t.Fatal("mismatched root length accepted")
	}
	if _, err := Evolve(tr, Config{Length: 2, Model: JC69{}, Root: []byte("AX")}, r); err == nil {
		t.Fatal("bad root base accepted")
	}
}

func TestDiscreteGamma(t *testing.T) {
	for _, alpha := range []float64{0.3, 1.0, 5.0} {
		rates := discreteGamma(alpha, 4)
		if len(rates) != 4 {
			t.Fatal("wrong category count")
		}
		mean := 0.0
		for i, r := range rates {
			if r <= 0 {
				t.Fatalf("alpha=%g rate[%d] = %g", alpha, i, r)
			}
			if i > 0 && rates[i-1] > r {
				t.Fatalf("alpha=%g rates not increasing: %v", alpha, rates)
			}
			mean += r
		}
		mean /= 4
		if math.Abs(mean-1) > 1e-9 {
			t.Fatalf("alpha=%g mean rate = %g", alpha, mean)
		}
	}
	// Small alpha = more heterogeneity (wider spread).
	spread := func(rs []float64) float64 { return rs[len(rs)-1] - rs[0] }
	if spread(discreteGamma(0.3, 4)) <= spread(discreteGamma(5, 4)) {
		t.Fatal("smaller alpha should spread rates more")
	}
}

func TestGammaCDFSanity(t *testing.T) {
	// Gamma(1, 1) is Exponential(1): CDF(x) = 1 - e^-x.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := gammaCDF(x, 1); math.Abs(got-want) > 1e-9 {
			t.Fatalf("gammaCDF(%g,1) = %g, want %g", x, got, want)
		}
	}
	if gammaCDF(0, 2) != 0 {
		t.Fatal("CDF(0) != 0")
	}
	if got := gammaCDF(1e6, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("CDF(inf) = %g", got)
	}
}

func TestGammaRatesAffectVariance(t *testing.T) {
	// With strong rate heterogeneity some sites stay identical while
	// others saturate; verify per-site difference counts vary more than
	// under uniform rates.
	tr, _ := treegen.Yule(30, 1, rand.New(rand.NewSource(4)))
	const L = 2000
	varOf := func(alpha float64) float64 {
		aln, err := Evolve(tr, Config{Length: L, Model: JC69{}, GammaAlpha: alpha, Scale: 2}, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		// Count distinct bases per site as a proxy for site rate.
		names := aln.Names
		mean, m2 := 0.0, 0.0
		for site := 0; site < L; site++ {
			seen := map[byte]bool{}
			for _, n := range names {
				seen[aln.Seqs[n][site]] = true
			}
			x := float64(len(seen))
			mean += x
			m2 += x * x
		}
		mean /= L
		return m2/L - mean*mean
	}
	if varOf(0.2) <= varOf(0) {
		t.Fatal("gamma heterogeneity did not increase cross-site variance")
	}
}

func TestAlignmentSubsetAndCharacters(t *testing.T) {
	tr, _ := treegen.Yule(6, 1, rand.New(rand.NewSource(2)))
	aln, _ := Evolve(tr, Config{Length: 20, Model: JC69{}}, rand.New(rand.NewSource(1)))
	names := aln.Names[:3]
	sub, err := aln.Subset(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Names) != 3 || sub.Len() != 20 {
		t.Fatalf("subset %d x %d", len(sub.Names), sub.Len())
	}
	if _, err := aln.Subset([]string{"ghost"}); err == nil {
		t.Fatal("subset with unknown name accepted")
	}
	ch := sub.Characters()
	if ch.Datatype != "DNA" || len(ch.Order) != 3 || len(ch.Seqs[names[0]]) != 20 {
		t.Fatalf("characters block wrong: %+v", ch)
	}
}

func TestBaseIndex(t *testing.T) {
	for i, b := range bases {
		if BaseIndex(b) != i {
			t.Fatalf("BaseIndex(%c) = %d", b, BaseIndex(b))
		}
	}
	if BaseIndex('N') != -1 || BaseIndex('-') != -1 {
		t.Fatal("unknown base index")
	}
	if BaseIndex('a') != 0 || BaseIndex('t') != 3 {
		t.Fatal("lowercase not accepted")
	}
}
