package treecmp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/project"
)

func mustParse(t *testing.T, s string) *phylo.Tree {
	t.Helper()
	tr, err := newick.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return tr
}

func TestClades(t *testing.T) {
	tr := mustParse(t, "((A:1,B:1):1,(C:1,D:1):1);")
	c := clades(tr)
	if len(c) != 2 {
		t.Fatalf("clades = %v", c)
	}
	if !c["A\x00B"] || !c["C\x00D"] {
		t.Fatalf("clades = %v", c)
	}
}

func TestRobinsonFoulds(t *testing.T) {
	a := mustParse(t, "((A:1,B:1):1,(C:1,D:1):1);")
	b := mustParse(t, "((A:1,C:1):1,(B:1,D:1):1);")
	d, err := RobinsonFoulds(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 { // {AB},{CD} vs {AC},{BD}: all four differ
		t.Fatalf("RF = %d, want 4", d)
	}
	same, err := RobinsonFoulds(a, a.Clone())
	if err != nil || same != 0 {
		t.Fatalf("RF(self) = %d, %v", same, err)
	}
	// Child order and edge lengths are ignored.
	c := mustParse(t, "((D:9,C:9):9,(B:9,A:9):9);")
	d, err = RobinsonFoulds(a, c)
	if err != nil || d != 0 {
		t.Fatalf("RF ignoring order/lengths = %d, %v", d, err)
	}
	// Different leaf sets are an error.
	e := mustParse(t, "((A:1,B:1):1,(C:1,E:1):1);")
	if _, err := RobinsonFoulds(a, e); err == nil {
		t.Fatal("leaf mismatch accepted")
	}
}

func TestRFPartialOverlap(t *testing.T) {
	a := mustParse(t, "(((A:1,B:1):1,C:1):1,D:1);")
	b := mustParse(t, "((A:1,B:1):1,(C:1,D:1):1);")
	d, err := RobinsonFoulds(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// a: {AB}, {ABC}; b: {AB}, {CD} -> symmetric difference {ABC},{CD} = 2.
	if d != 2 {
		t.Fatalf("RF = %d, want 2", d)
	}
}

// TestPatternMatchPaperExample follows §2.2: "the tree pattern shown in
// Figure 2 will match the tree shown in Figure 1. However if we exchange
// the location of species Bha and Lla in the pattern tree, the new pattern
// will not match the tree."
func TestPatternMatchPaperExample(t *testing.T) {
	tr := phylo.PaperFigure1()
	ix, err := core.Build(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	planner := project.NewPlanner(tr, ix)

	// Figure 2 pattern: (Syn,(Lla,Bha)).
	pattern := mustParse(t, "(Syn:2.5,(Lla:2.5,Bha:0.75):0.5);")
	res, err := PatternMatch(planner, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.RF != 0 {
		t.Fatalf("Figure 2 pattern does not match: %+v", res)
	}
	// Exchange Bha and Lla's positions: (Lla,(Syn... no — swap the leaves
	// across the interior node: (Bha,(Lla,Syn)).
	swapped := mustParse(t, "(Bha:1,(Lla:1,Syn:1):1);")
	res, err = PatternMatch(planner, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("swapped pattern unexpectedly matches")
	}
	if res.RF == 0 || res.Normalized <= 0 {
		t.Fatalf("similarity not reported: %+v", res)
	}
}

func TestPatternMatchUnknownLeaf(t *testing.T) {
	tr := phylo.PaperFigure1()
	planner := project.NewPlanner(tr, project.NaiveLCA{})
	pattern := mustParse(t, "(Ghost:1,Syn:1);")
	if _, err := PatternMatch(planner, pattern); err == nil {
		t.Fatal("pattern with unknown species matched")
	}
}

func TestMajorityConsensus(t *testing.T) {
	t1 := mustParse(t, "(((A:1,B:1):1,C:1):1,(D:1,E:1):1);")
	t2 := mustParse(t, "(((A:1,B:1):1,C:1):1,(D:1,E:1):1);")
	t3 := mustParse(t, "(((A:1,C:1):1,B:1):1,(D:1,E:1):1);")
	cons, err := MajorityConsensus([]*phylo.Tree{t1, t2, t3})
	if err != nil {
		t.Fatal(err)
	}
	got := clades(cons)
	// {AB} and {ABC} and {DE} appear in 2 of 3; {AC}, {ACB} appear once.
	for _, want := range []string{"A\x00B", "A\x00B\x00C", "D\x00E"} {
		if !got[want] {
			t.Fatalf("consensus missing clade %q: %v", want, got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("consensus clades = %v", got)
	}
	if err := cons.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMajorityConsensusSingle(t *testing.T) {
	t1 := mustParse(t, "((A:1,B:1):1,C:1);")
	cons, err := MajorityConsensus([]*phylo.Tree{t1})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := RobinsonFoulds(cons, t1); d != 0 {
		t.Fatalf("consensus of one tree differs: RF=%d", d)
	}
}

func TestMajorityConsensusErrors(t *testing.T) {
	if _, err := MajorityConsensus(nil); err == nil {
		t.Fatal("empty consensus succeeded")
	}
	a := mustParse(t, "(A:1,B:1);")
	b := mustParse(t, "(A:1,C:1);")
	if _, err := MajorityConsensus([]*phylo.Tree{a, b}); err == nil {
		t.Fatal("mismatched leaf sets accepted")
	}
}
