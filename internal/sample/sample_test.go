package sample

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/phylo"
)

// TestPaperTimeSampling replays the §2.2 walkthrough: sampling 4 species
// with respect to evolutionary distance 1 from the Figure 1 tree. The
// frontier is {Bha, y, Syn, Bsu} (the paper writes "x" for the parent of
// Lla and Spy), each contributing 4/4 = 1 leaf, so the result is
// {Bha, Lla, Syn, Bsu} or {Bha, Spy, Syn, Bsu}.
func TestPaperTimeSampling(t *testing.T) {
	tr := phylo.PaperFigure1()
	front := Frontier(tr, 1)
	if len(front) != 4 {
		t.Fatalf("frontier size = %d, want 4", len(front))
	}
	names := map[string]bool{}
	for _, n := range front {
		if n.Name != "" {
			names[n.Name] = true
		} else if n != tr.NodeByName("Lla").Parent {
			t.Fatalf("unexpected anonymous frontier node %v", n)
		}
	}
	for _, want := range []string{"Bha", "Syn", "Bsu"} {
		if !names[want] {
			t.Fatalf("frontier missing %s (has %v)", want, names)
		}
	}

	sawLla, sawSpy := false, false
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, err := WithRespectToTime(tr, 1, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		gotNames := Names(got)
		wantA := []string{"Bha", "Bsu", "Lla", "Syn"}
		wantB := []string{"Bha", "Bsu", "Spy", "Syn"}
		switch {
		case reflect.DeepEqual(gotNames, wantA):
			sawLla = true
		case reflect.DeepEqual(gotNames, wantB):
			sawSpy = true
		default:
			t.Fatalf("seed %d: sample = %v, want %v or %v", seed, gotNames, wantA, wantB)
		}
	}
	if !sawLla || !sawSpy {
		t.Fatalf("randomness degenerate: Lla=%v Spy=%v over 50 seeds", sawLla, sawSpy)
	}
}

func TestFrontierBoundary(t *testing.T) {
	tr := phylo.PaperFigure1()
	// At time 0 every root child whose edge exceeds 0 is the frontier.
	front := Frontier(tr, 0)
	if len(front) != 3 {
		t.Fatalf("frontier(0) size = %d, want 3 (root children)", len(front))
	}
	// Beyond the tree's height the frontier is empty.
	if got := Frontier(tr, 100); len(got) != 0 {
		t.Fatalf("frontier(100) = %v", got)
	}
	// Exactly at a node's distance the node is excluded (strict >): Bha
	// and Bsu sit at 1.25.
	front = Frontier(tr, 1.25)
	for _, n := range front {
		if n.Name == "Bha" || n.Name == "Bsu" {
			t.Fatalf("node at distance exactly 1.25 included at time 1.25")
		}
	}
}

func TestUniform(t *testing.T) {
	tr := phylo.PaperFigure1()
	r := rand.New(rand.NewSource(1))
	got, err := Uniform(tr, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	seen := map[string]bool{}
	for _, n := range got {
		if !n.IsLeaf() {
			t.Fatalf("sampled interior node %v", n)
		}
		if seen[n.Name] {
			t.Fatalf("duplicate %s", n.Name)
		}
		seen[n.Name] = true
	}
	if _, err := Uniform(tr, 6, r); err == nil {
		t.Fatal("oversample succeeded")
	}
	if _, err := Uniform(tr, 0, r); err == nil {
		t.Fatal("k=0 succeeded")
	}
	// k = all leaves returns every leaf.
	all, err := Uniform(tr, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Names(all), []string{"Bha", "Bsu", "Lla", "Spy", "Syn"}) {
		t.Fatalf("full sample = %v", Names(all))
	}
}

// TestUniformIsUnbiasedish: over many draws of 1-of-5, each leaf should
// appear a reasonable number of times.
func TestUniformIsUnbiasedish(t *testing.T) {
	tr := phylo.PaperFigure1()
	r := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	const trials = 5000
	for i := 0; i < trials; i++ {
		got, err := Uniform(tr, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		counts[got[0].Name]++
	}
	for name, c := range counts {
		if c < trials/5-200 || c > trials/5+200 {
			t.Fatalf("leaf %s drawn %d times of %d (expected ~%d)", name, c, trials, trials/5)
		}
	}
}

func TestWithRespectToTimeQuotaRedistribution(t *testing.T) {
	// Build a tree where one frontier subtree has a single leaf and the
	// other has many, then ask for more than an even split.
	small := &phylo.Node{Name: "solo", Length: 2}
	big := &phylo.Node{Length: 2}
	for i := 0; i < 10; i++ {
		big.AddChild(&phylo.Node{Name: "b" + string(rune('0'+i)), Length: 1})
	}
	root := &phylo.Node{}
	root.AddChild(small)
	root.AddChild(big)
	tr := phylo.New(root)
	tr.Reindex()

	r := rand.New(rand.NewSource(9))
	got, err := WithRespectToTime(tr, 1, 7, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("sampled %d, want 7", len(got))
	}
	names := Names(got)
	if !contains(names, "solo") {
		// solo has capacity 1 and base quota >= 3; after clamping, the
		// deficit must flow to the big clade. solo itself always fits its
		// quota of min(base,1)... quota for solo is min(3 or 4, 1)=1 so it
		// is always sampled.
		t.Fatalf("solo missing from %v", names)
	}
	// Oversampling beyond total capacity fails.
	if _, err := WithRespectToTime(tr, 1, 12, r); err == nil {
		t.Fatal("oversample past capacity succeeded")
	}
	// Time beyond the tree yields ErrEmptyResult.
	if _, err := WithRespectToTime(tr, 99, 1, r); err == nil {
		t.Fatal("empty frontier succeeded")
	}
}

// TestTimeSamplingInvariantProperty: every sampled leaf must lie below a
// frontier node, counts must match, and no duplicates may occur.
func TestTimeSamplingInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomWeightedTree(r, 60)
		dist := tr.RootDistances()
		maxd := 0.0
		for _, d := range dist {
			if d > maxd {
				maxd = d
			}
		}
		time := r.Float64() * maxd * 0.8
		front := Frontier(tr, time)
		if len(front) == 0 {
			return true
		}
		capacity := 0
		for _, fn := range front {
			capacity += len(subtreeLeaves(fn))
		}
		k := 1 + r.Intn(capacity)
		got, err := WithRespectToTime(tr, time, k, r)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(got) != k {
			return false
		}
		seen := map[*phylo.Node]bool{}
		for _, n := range got {
			if seen[n] {
				return false
			}
			seen[n] = true
			if !n.IsLeaf() || dist[n] <= time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFromNames(t *testing.T) {
	tr := phylo.PaperFigure1()
	got, err := FromNames(tr, []string{"Bha", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatal("wrong count")
	}
	if _, err := FromNames(tr, []string{"Bha", "Bha"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := FromNames(tr, []string{"Nope"}); err == nil {
		t.Fatal("unknown accepted")
	}
	if _, err := FromNames(tr, nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func contains(xs []string, want string) bool {
	i := sort.SearchStrings(xs, want)
	return i < len(xs) && xs[i] == want
}

func randomWeightedTree(r *rand.Rand, n int) *phylo.Tree {
	root := &phylo.Node{}
	nodes := []*phylo.Node{root}
	for len(nodes) < n {
		p := nodes[r.Intn(len(nodes))]
		c := &phylo.Node{Length: r.Float64() + 0.05}
		p.AddChild(c)
		nodes = append(nodes, c)
	}
	i := 0
	for _, nd := range nodes {
		if nd.IsLeaf() {
			nd.Name = "s" + itoa(i)
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
