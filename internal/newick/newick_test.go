package newick

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phylo"
)

func TestParseFigure1(t *testing.T) {
	in := "(Syn:2.5,((Lla:1,Spy:1):1.5,Bha:0.75):0.5,Bsu:1.25);"
	tr, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	want := phylo.PaperFigure1()
	if !phylo.Equal(tr, want, 1e-12) {
		t.Fatalf("parsed tree differs from PaperFigure1:\n got %s\nwant %s", String(tr), String(want))
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []string{
		"(A:1,B:2);",
		"((A:1,B:2):0.5,C:3);",
		"(A:1,B:2,C:3,D:4);",
		"((((deep:1):1):1):1,top:2);",
		"(A:0.1,B:1e-05);",
	}
	for _, in := range cases {
		tr, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := String(tr)
		tr2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse(%q): %v", out, err)
		}
		if !phylo.Equal(tr, tr2, 1e-12) {
			t.Fatalf("round trip changed tree: %q -> %q", in, out)
		}
	}
}

func TestQuotedLabels(t *testing.T) {
	in := "('Homo sapiens':1,'It''s complicated':2);"
	tr, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeByName("Homo sapiens") == nil {
		t.Fatalf("quoted label with space lost: %v", tr.LeafNames())
	}
	if tr.NodeByName("It's complicated") == nil {
		t.Fatalf("escaped quote lost: %v", tr.LeafNames())
	}
	out := String(tr)
	tr2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if tr2.NodeByName("It's complicated") == nil {
		t.Fatal("quote escaping not reversible")
	}
}

func TestUnderscoreMeansSpace(t *testing.T) {
	tr, err := Parse("(Homo_sapiens:1,Pan:2);")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeByName("Homo sapiens") == nil {
		t.Fatalf("underscore not converted: %v", tr.LeafNames())
	}
}

func TestComments(t *testing.T) {
	tr, err := Parse("[&R] (A[comment]:1,B:2[another]);")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 2 || tr.NodeByName("A") == nil {
		t.Fatalf("comments broke parse: %v", tr.LeafNames())
	}
}

func TestInteriorNames(t *testing.T) {
	tr, err := Parse("((A:1,B:1)AB:2,C:1)root;")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeByName("AB") == nil || tr.NodeByName("root") == nil {
		t.Fatal("interior names lost")
	}
	out := String(tr)
	if !strings.Contains(out, "AB") {
		t.Fatalf("interior name not written: %s", out)
	}
}

func TestScientificNotationLengths(t *testing.T) {
	tr, err := Parse("(A:1.5e-3,B:2E+2);")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.NodeByName("A").Length-0.0015) > 1e-15 {
		t.Fatalf("A length = %g", tr.NodeByName("A").Length)
	}
	if math.Abs(tr.NodeByName("B").Length-200) > 1e-12 {
		t.Fatalf("B length = %g", tr.NodeByName("B").Length)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(A:1,B:2",     // unclosed paren
		"(A:1,B:2));",  // trailing garbage
		"(A:,B:1);",    // missing length after colon
		"(A:1 B:2);",   // missing comma
		"('unterm:1);", // unterminated quote
		"(,);",         // empty nodes
		"(A:1,B:abc);", // non-numeric length
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestMissingSemicolonTolerated(t *testing.T) {
	tr, err := Parse("(A:1,B:2)")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 2 {
		t.Fatal("tree wrong without semicolon")
	}
}

// TestRoundTripProperty: any tree built from a random nested structure
// survives a write/parse cycle.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTree(seed)
		out := String(tr)
		tr2, err := Parse(out)
		if err != nil {
			t.Logf("Parse(%q): %v", out, err)
			return false
		}
		return phylo.Equal(tr, tr2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomTree builds a small deterministic random tree from a seed, using
// only name characters that exercise quoting paths.
func randomTree(seed int64) *phylo.Tree {
	state := uint64(seed)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	leafNames := []string{"A", "B with space", "C's", "D_und", "E:colon", "F"}
	var id int
	var build func(depth int) *phylo.Node
	build = func(depth int) *phylo.Node {
		if depth >= 4 || next(3) == 0 {
			n := &phylo.Node{Name: leafNames[next(len(leafNames))] + itoa(id), Length: float64(next(100)) / 8}
			id++
			return n
		}
		n := &phylo.Node{Length: float64(next(100)) / 8}
		kids := 2 + next(3)
		for i := 0; i < kids; i++ {
			n.AddChild(build(depth + 1))
		}
		return n
	}
	root := &phylo.Node{}
	root.AddChild(build(1))
	root.AddChild(build(1))
	tr := phylo.New(root)
	tr.Reindex()
	return tr
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
		v /= 10
	}
	return string(buf)
}
