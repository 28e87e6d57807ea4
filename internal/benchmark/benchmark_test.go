package benchmark

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/phylo"
	"repro/internal/recon"
	"repro/internal/seqsim"
	"repro/internal/treegen"
)

func goldTree(t *testing.T, n int) *phylo.Tree {
	t.Helper()
	tr, err := treegen.Yule(n, 1, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	// Scale down branch lengths to avoid distance saturation.
	for _, nd := range tr.Nodes() {
		if nd.Parent != nil {
			nd.Length *= 0.2
		}
	}
	return tr
}

func TestRunUniform(t *testing.T) {
	gold := goldTree(t, 120)
	rep, err := Run(Config{
		Gold:        gold,
		SeqLength:   800,
		SampleSizes: []int{10, 25},
		Replicates:  2,
		Method:      uniform,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 replicates x 2 default algorithms.
	if got := len(rep.Results); got != 8 {
		t.Fatalf("results = %d, want 8", got)
	}
	for _, res := range rep.Results {
		if res.Algorithm != "NJ" && res.Algorithm != "UPGMA" {
			t.Fatalf("unexpected algorithm %s", res.Algorithm)
		}
		if res.SampleSize != 10 && res.SampleSize != 25 {
			t.Fatalf("unexpected size %d", res.SampleSize)
		}
		if res.RF < 0 || res.NormRF < 0 || res.NormRF > 1 {
			t.Fatalf("bad scores: %+v", res)
		}
		if len(res.Species) != res.SampleSize {
			t.Fatalf("species list %d != size %d", len(res.Species), res.SampleSize)
		}
		if res.Method != "uniform" {
			t.Fatalf("method = %s", res.Method)
		}
	}
	sums := rep.summarize()
	if len(sums) != 4 {
		t.Fatalf("summaries = %d, want 4", len(sums))
	}
	for _, s := range sums {
		if s.Runs != 2 {
			t.Fatalf("summary runs = %d", s.Runs)
		}
	}
	out := rep.String()
	if !strings.Contains(out, "NJ") || !strings.Contains(out, "UPGMA") {
		t.Fatalf("report table incomplete:\n%s", out)
	}
}

func TestRunReproducible(t *testing.T) {
	gold := goldTree(t, 80)
	cfg := Config{Gold: gold, SeqLength: 400, SampleSizes: []int{12}, Replicates: 2, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatal("different result counts")
	}
	for i := range a.Results {
		if a.Results[i].RF != b.Results[i].RF || a.Results[i].Species[0] != b.Results[i].Species[0] {
			t.Fatalf("run not reproducible at %d", i)
		}
	}
}

func TestRunTimeConstrained(t *testing.T) {
	gold := goldTree(t, 100)
	// Pick a time inside the tree: half the (ultrametric) height.
	height := 0.0
	dist := gold.RootDistances()
	for _, l := range gold.Leaves() {
		if dist[l] > height {
			height = dist[l]
		}
	}
	rep, err := Run(Config{
		Gold:        gold,
		SeqLength:   400,
		SampleSizes: []int{8},
		Replicates:  2,
		Method:      TimeConstrained,
		Time:        height / 2,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Method != "time" {
			t.Fatalf("method = %s", res.Method)
		}
	}
}

// TestNJBeatsUPGMAOnNonClockData checks the qualitative result the
// benchmark manager exists to show: on non-clock gold trees NJ's mean
// error is at most UPGMA's.
func TestNJBeatsUPGMAOnNonClockData(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	gold, err := treegen.Yule(100, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range gold.Nodes() {
		if nd.Parent != nil {
			nd.Length = 0.02 + r.ExpFloat64()*0.15 // break the clock
		}
	}
	rep, err := Run(Config{
		Gold:        gold,
		SeqLength:   2000,
		SampleSizes: []int{20},
		Replicates:  4,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var nj, up float64
	for _, s := range rep.summarize() {
		switch s.Algorithm {
		case "NJ":
			nj = s.MeanNormRF
		case "UPGMA":
			up = s.MeanNormRF
		}
	}
	if nj > up {
		t.Fatalf("NJ (%.3f) worse than UPGMA (%.3f) on non-clock data", nj, up)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err != errNoGold {
		t.Fatalf("err = %v", err)
	}
	gold := goldTree(t, 20)
	if _, err := Run(Config{Gold: gold}); err != errNoSize {
		t.Fatalf("err = %v", err)
	}
	// Oversampling propagates the sampler's error.
	if _, err := Run(Config{Gold: gold, SampleSizes: []int{99}, SeqLength: 100}); err == nil {
		t.Fatal("oversample accepted")
	}
}

func TestRunWithSeqAlgorithm(t *testing.T) {
	gold := goldTree(t, 50)
	rep, err := Run(Config{
		Gold:          gold,
		SeqLength:     400,
		SampleSizes:   []int{8},
		Replicates:    2,
		Algorithms:    []recon.Algorithm{recon.NeighborJoining{}},
		SeqAlgorithms: []recon.SeqAlgorithm{recon.Parsimony{Seed: 1}},
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 size x 2 replicates x (1 distance + 1 sequence algorithm).
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(rep.Results))
	}
	names := map[string]int{}
	for _, r := range rep.Results {
		names[r.Algorithm]++
	}
	if names["NJ"] != 2 || names["MP"] != 2 {
		t.Fatalf("algorithm mix = %v", names)
	}
	if !strings.Contains(rep.String(), "MP") {
		t.Fatal("summary missing MP")
	}
}

func TestRunWithProvidedAlignment(t *testing.T) {
	gold := goldTree(t, 40)
	aln, err := seqsim.Evolve(gold, seqsim.Config{Length: 200, Model: seqsim.K2P{Kappa: 2}}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Gold:        gold,
		Alignment:   aln,
		SampleSizes: []int{10},
		Replicates:  1,
		Algorithms:  []recon.Algorithm{recon.NeighborJoining{}},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Algorithm != "NJ" {
		t.Fatalf("results = %+v", rep.Results)
	}
}
