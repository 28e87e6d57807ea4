package crimson_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	crimson "repro"
	"repro/internal/benchmark"
)

// snapshotOf pins repo's committed state until the test ends.
func snapshotOf(t testing.TB, repo *crimson.Repository) *crimson.Snapshot {
	t.Helper()
	snap := repo.Snapshot()
	t.Cleanup(snap.Close)
	return snap
}

// openTree opens the named tree on a snapshot of repo that closes with the
// test.
func openTree(t testing.TB, repo *crimson.Repository, name string) *crimson.StoredTree {
	t.Helper()
	st, err := snapshotOf(t, repo).Tree(name)
	if err != nil {
		t.Fatalf("opening stored tree %q: %v", name, err)
	}
	return st
}

// TestFigure1PipelineOnFacade exercises the whole public API on the
// paper's running example.
func TestFigure1PipelineOnFacade(t *testing.T) {
	tree, err := crimson.ParseNewick("(Syn:2.5,((Lla:1,Spy:1):1.5,Bha:0.75):0.5,Bsu:1.25);")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := crimson.BuildIndex(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	projected, err := crimson.Project(tree, ix, []string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	want := "(Syn:2.5,(Lla:2.5,Bha:0.75):0.5);"
	if got := crimson.FormatNewick(projected); got != want {
		t.Fatalf("projection = %s, want %s", got, want)
	}
	res, err := crimson.PatternMatch(tree, ix, projected)
	if err != nil || !res.Exact {
		t.Fatalf("pattern match: %+v, %v", res, err)
	}
	if rf, err := crimson.RobinsonFoulds(projected, projected.Clone()); err != nil || rf != 0 {
		t.Fatalf("RF self = %d, %v", rf, err)
	}
}

func TestRepositoryLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "api.db")
	repo, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	gold := crimson.PaperFigure1()
	var msgs []string
	st, err := repo.LoadTree("fig1", gold, 2, func(m string) { msgs = append(msgs, m) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Info().Leaves != 5 || len(msgs) == 0 {
		t.Fatalf("info = %+v msgs = %d", st.Info(), len(msgs))
	}
	if err := repo.Species.Put("fig1", "Bha", "seq:x", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err = crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	snap := snapshotOf(t, repo)
	stored, err := snap.Tree("fig1")
	if err != nil {
		t.Fatal(err)
	}
	projected, err := stored.ProjectNamesCtx(context.Background(), []string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	if got := crimson.FormatNewick(projected); got != "(Syn:2.5,(Lla:2.5,Bha:0.75):0.5);" {
		t.Fatalf("stored projection = %s", got)
	}
	seq, err := snap.SpeciesView.Get("fig1", "Bha", "seq:x")
	if err != nil || string(seq) != "ACGT" {
		t.Fatalf("species data = %q, %v", seq, err)
	}
	// The load was recorded in the history.
	hist, err := snap.QueryView.History(context.Background(), 0)
	if err != nil || len(hist) == 0 {
		t.Fatalf("history = %v, %v", hist, err)
	}
	if hist[len(hist)-1].Kind != "load" {
		t.Fatalf("first entry kind = %s", hist[len(hist)-1].Kind)
	}
}

func TestLoadNexusStoresSequences(t *testing.T) {
	doc, err := crimson.ParseNexus(strings.NewReader(`#NEXUS
BEGIN CHARACTERS;
	DIMENSIONS NCHAR=4;
	FORMAT DATATYPE=DNA;
	MATRIX
		A ACGT
		B AGGT
		C ACGA
	;
END;
BEGIN TREES;
	TREE demo = [&R] ((A:1,B:1):1,C:2);
END;
`))
	if err != nil {
		t.Fatal(err)
	}
	repo := crimson.OpenMem()
	defer repo.Close()
	st, err := repo.LoadNexus(doc, "", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info().Name != "demo" {
		t.Fatalf("tree name = %s", st.Info().Name)
	}
	// The load committed the sequences with the tree.
	species := snapshotOf(t, repo).SpeciesView
	for taxon, want := range map[string]string{"A": "ACGT", "B": "AGGT", "C": "ACGA"} {
		if seq, err := species.Get("demo", taxon, "seq:nexus"); err != nil || string(seq) != want {
			t.Fatalf("nexus sequence of %s = %q, %v", taxon, seq, err)
		}
	}
}

func TestGeneratorsAndBenchmarkOnFacade(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	gold, err := crimson.GenerateYule(60, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gold.Nodes() {
		if n.Parent != nil {
			n.Length *= 0.2
		}
	}
	aln, err := crimson.SimulateSequences(gold, crimson.SeqConfig{Length: 300, Model: crimson.K2P(2)}, r)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := crimson.RunBenchmark(crimson.BenchConfig{
		Gold:        gold,
		Alignment:   aln,
		SampleSizes: []int{10},
		Replicates:  2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if !strings.Contains(rep.String(), "NJ") {
		t.Fatal("report missing NJ")
	}
	// Time-constrained method is reachable through the facade too.
	if benchmark.TimeConstrained.String() != "time" {
		t.Fatal("selection name")
	}
}

func TestGenerateShapes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	bd, err := crimson.GenerateBirthDeath(30, 1, 0.2, false, r)
	if err != nil || bd.NumLeaves() != 30 {
		t.Fatalf("bd = %v, %v", bd.NumLeaves(), err)
	}
	cat, err := crimson.GenerateCaterpillar(50, r)
	if err != nil || cat.MaxDepth() != 50 {
		t.Fatalf("cat depth = %d, %v", cat.MaxDepth(), err)
	}
	bal, err := crimson.GenerateBalanced(5, r)
	if err != nil || bal.NumLeaves() != 32 {
		t.Fatalf("bal = %d, %v", bal.NumLeaves(), err)
	}
}

func TestConsensusOnFacade(t *testing.T) {
	t1, _ := crimson.ParseNewick("((A:1,B:1):1,(C:1,D:1):1);")
	t2, _ := crimson.ParseNewick("((A:1,B:1):1,(C:1,D:1):1);")
	t3, _ := crimson.ParseNewick("((A:1,C:1):1,(B:1,D:1):1);")
	cons, err := crimson.MajorityConsensus([]*crimson.Tree{t1, t2, t3})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := crimson.RobinsonFoulds(cons, t1)
	if err != nil || rf != 0 {
		t.Fatalf("consensus RF vs majority shape = %d, %v", rf, err)
	}
}

func TestViewersProduceOutput(t *testing.T) {
	tree := crimson.PaperFigure1()
	ascii := crimson.ASCII(tree)
	for _, want := range []string{"Syn", "Lla", "Bsu", "└─"} {
		if !strings.Contains(ascii, want) {
			t.Fatalf("ASCII missing %q:\n%s", want, ascii)
		}
	}
	dot := crimson.DOT(tree, "fig1")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "Spy") {
		t.Fatalf("DOT malformed:\n%s", dot)
	}
	libsea := crimson.LibSea(tree, "fig1")
	for _, want := range []string{"@numNodes=8", "@numLinks=7", "$spanning_tree", "\"Bha\""} {
		if !strings.Contains(libsea, want) {
			t.Fatalf("LibSea missing %q", want)
		}
	}
	// Uniform sampling through the facade.
	r := rand.New(rand.NewSource(5))
	sel, err := crimson.SampleUniform(tree, 2, r)
	if err != nil || len(sel) != 2 {
		t.Fatalf("SampleUniform = %v, %v", sel, err)
	}
	sel, err = crimson.SampleWithTime(tree, 1, 4, r)
	if err != nil || len(sel) != 4 {
		t.Fatalf("SampleWithTime = %v, %v", sel, err)
	}
}
