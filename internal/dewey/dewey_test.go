package dewey

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phylo"
)

// TestParseString pins the paper's dotted label text: String renders it,
// and splitting the text on '.' parses back to the same components, so the
// rendering is lossless for multi-digit components too.
func TestParseString(t *testing.T) {
	for _, c := range []struct {
		l    Label
		want string
	}{
		{Label{}, ""},
		{Label{2, 1, 1}, "2.1.1"},
		{Label{7}, "7"},
		{Label{1, 2, 3, 4, 5}, "1.2.3.4.5"},
		{Label{12, 1, 300}, "12.1.300"},
	} {
		got := c.l.String()
		if got != c.want {
			t.Fatalf("%v.String() = %q, want %q", []uint32(c.l), got, c.want)
		}
		var back Label
		if got != "" {
			for _, p := range strings.Split(got, ".") {
				v, err := strconv.ParseUint(p, 10, 32)
				if err != nil {
					t.Fatalf("component %q of %q: %v", p, got, err)
				}
				back = append(back, uint32(v))
			}
		}
		if compare(back, c.l) != 0 {
			t.Fatalf("%q parses back to %v, want %v", got, []uint32(back), []uint32(c.l))
		}
	}
}

func TestCompareAndLCP(t *testing.T) {
	lla := Label{2, 1, 1}
	spy := Label{2, 1, 2}
	if compare(lla, spy) >= 0 {
		t.Fatal("2.1.1 not before 2.1.2")
	}
	// The paper: LCA of Lla (2.1.1) and Spy (2.1.2) is (2.1).
	if got := lcp(lla, spy); got.String() != "2.1" {
		t.Fatalf("LCP = %q, want 2.1", got.String())
	}
	// Prefix sorts before extension (preorder).
	if compare(Label{2, 1}, lla) >= 0 {
		t.Fatal("prefix not before extension")
	}
	if compare(lla, lla) != 0 {
		t.Fatal("self compare != 0")
	}
	if compare(Label{3}, lla) <= 0 {
		t.Fatal("3 not after 2.1.1")
	}
}

func TestAncestorOrSelf(t *testing.T) {
	root := Label{}
	x := Label{2}
	lla := Label{2, 1, 1}
	if !root.ancestorOrSelf(lla) || !x.ancestorOrSelf(lla) || !lla.ancestorOrSelf(lla) {
		t.Fatal("ancestor tests failed")
	}
	if lla.ancestorOrSelf(x) {
		t.Fatal("descendant reported as ancestor")
	}
	if (Label{3}).ancestorOrSelf(lla) {
		t.Fatal("sibling reported as ancestor")
	}
}

func TestKeyOrderMatchesCompare(t *testing.T) {
	f := func(a, b []uint32) bool {
		la := make(Label, 0, len(a))
		for _, v := range a {
			la = append(la, v%1000+1)
		}
		lb := make(Label, 0, len(b))
		for _, v := range b {
			lb = append(lb, v%1000+1)
		}
		return bytes.Compare(la.Key(), lb.Key()) == compare(la, lb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChildParent(t *testing.T) {
	l := Label{2, 1}
	c := l.child(3)
	if c.String() != "2.1.3" {
		t.Fatalf("Child = %s", c)
	}
	p, ok := c.Parent()
	if !ok || compare(p, l) != 0 {
		t.Fatalf("Parent = %v %v", p, ok)
	}
	if _, ok := (Label{}).Parent(); ok {
		t.Fatal("root has a parent")
	}
}

func TestBuildPlainFigure1(t *testing.T) {
	tr := phylo.PaperFigure1()
	ix := BuildPlain(tr)
	// The paper's labels: Lla = (2.1.1), Spy = (2.1.2).
	lla := tr.NodeByName("Lla")
	spy := tr.NodeByName("Spy")
	if got := ix.Label(lla.ID).String(); got != "2.1.1" {
		t.Fatalf("Label(Lla) = %s, want 2.1.1", got)
	}
	if got := ix.Label(spy.ID).String(); got != "2.1.2" {
		t.Fatalf("Label(Spy) = %s, want 2.1.2", got)
	}
	// LCA(Lla, Spy) is the interior node labeled (2.1).
	lcaID := ix.LCA(lla.ID, spy.ID)
	if got := ix.Label(lcaID).String(); got != "2.1" {
		t.Fatalf("LCA label = %s, want 2.1", got)
	}
	if tr.Nodes()[lcaID] != lla.Parent {
		t.Fatal("LCA is not Lla's parent")
	}
	// Root checks.
	if got := ix.Label(tr.Root.ID).String(); got != "" {
		t.Fatalf("root label = %q", got)
	}
	syn := tr.NodeByName("Syn")
	if ix.LCA(syn.ID, lla.ID) != tr.Root.ID {
		t.Fatal("LCA(Syn, Lla) != root")
	}
	if !ix.labels[tr.Root.ID].ancestorOrSelf(ix.labels[lla.ID]) || ix.labels[lla.ID].ancestorOrSelf(ix.labels[tr.Root.ID]) {
		t.Fatal("ancestorOrSelf wrong")
	}
	if compare(ix.labels[syn.ID], ix.labels[lla.ID]) >= 0 {
		t.Fatal("Syn (1) should precede Lla (2.1.1)")
	}
}

func TestPlainMatchesNaiveLCA(t *testing.T) {
	tr := phylo.PaperFigure1()
	ix := BuildPlain(tr)
	nodes := tr.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			want := phylo.LCA(a, b)
			if got := nodes[ix.LCA(a.ID, b.ID)]; got != want {
				t.Fatalf("LCA(%s,%s) = %s, want %s", a.Name, b.Name, got.Name, want.Name)
			}
		}
	}
}

func TestLabelSizeGrowsWithDepth(t *testing.T) {
	// A caterpillar of depth d gives labels of size O(d) — the overhead
	// the paper's hierarchical scheme removes.
	depth := 100
	root := &phylo.Node{}
	cur := root
	for i := 0; i < depth; i++ {
		leaf := &phylo.Node{Name: "L" + itoa(i), Length: 1}
		next := &phylo.Node{Length: 1}
		cur.AddChild(leaf)
		cur.AddChild(next)
		cur = next
	}
	cur.Name = "tip"
	tr := phylo.New(root)
	tr.Reindex()
	ix := BuildPlain(tr)
	if got := ix.MaxLabelLen(); got != depth {
		t.Fatalf("MaxLabelLen = %d, want %d", got, depth)
	}
	if ix.TotalLabelBytes() < 4*depth*depth/2 {
		t.Fatalf("TotalLabelBytes = %d suspiciously small", ix.TotalLabelBytes())
	}
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

// compare orders labels in document (preorder) order: component-wise
// numeric comparison, with a prefix ordering before its extensions.
func compare(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Parent returns the parent label, or nil for the root.
func (l Label) Parent() (Label, bool) {
	if len(l) == 0 {
		return nil, false
	}
	return append(Label(nil), l[:len(l)-1]...), true
}

// ancestorOrSelf reports whether a is a (non-strict) ancestor of b,
// i.e. a is a prefix of b.
func (l Label) ancestorOrSelf(b Label) bool {
	if len(l) > len(b) {
		return false
	}
	for i, c := range l {
		if b[i] != c {
			return false
		}
	}
	return true
}
