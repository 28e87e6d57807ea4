package treestore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/relstore"
	"repro/internal/sample"
	"repro/internal/treegen"
)

// openTreeOf opens the named tree on a snapshot of s that closes with the
// test (or, in a property function, with the enclosing test).
func openTreeOf(t testing.TB, s *Store, name string) *Tree {
	t.Helper()
	sn := s.Snapshot()
	t.Cleanup(sn.Close)
	tr, err := sn.Tree(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// loadOpen stores tr in s — Load commits — and opens it on a snapshot.
func loadOpen(t testing.TB, s *Store, name string, tr *phylo.Tree, f int) *Tree {
	t.Helper()
	if _, err := s.Load(name, tr, f, nil); err != nil {
		t.Fatal(err)
	}
	return openTreeOf(t, s, name)
}

func loadFigure1(t *testing.T, f int) (*Store, *Tree) {
	t.Helper()
	s := OpenMem()
	t.Cleanup(func() { s.Close() })
	return s, loadOpen(t, s, "fig1", phylo.PaperFigure1(), f)
}

func TestLoadAndInfo(t *testing.T) {
	var msgs []string
	s := OpenMem()
	defer s.Close()
	tr, err := s.Load("fig1", phylo.PaperFigure1(), 2, func(m string) { msgs = append(msgs, m) })
	if err != nil {
		t.Fatal(err)
	}
	info := tr.Info()
	if info.Nodes != 8 || info.Leaves != 5 || info.F != 2 || info.Layers != 2 || info.Depth != 3 {
		t.Fatalf("info = %+v", info)
	}
	if len(msgs) == 0 {
		t.Fatal("no loading progress messages")
	}
	found := false
	for _, m := range msgs {
		if strings.Contains(m, "committed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no commit message in %v", msgs)
	}
	// Duplicate load rejected.
	if _, err := s.Load("fig1", phylo.PaperFigure1(), 2, nil); !errors.Is(err, ErrTreeExists) {
		t.Fatalf("duplicate load error = %v", err)
	}
	// Bad names rejected.
	if _, err := s.Load("bad name!", phylo.PaperFigure1(), 2, nil); !errors.Is(err, ErrBadName) {
		t.Fatalf("bad name error = %v", err)
	}
}

func TestNodeAccess(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	syn, err := tr.NodeByNameCtx(context.Background(), "Syn")
	if err != nil {
		t.Fatal(err)
	}
	if !syn.Leaf || syn.Dist != 2.5 || syn.Depth != 1 {
		t.Fatalf("Syn row = %+v", syn)
	}
	root, err := tr.NodeCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if root.Parent != -1 || root.Size != 8 {
		t.Fatalf("root row = %+v", root)
	}
	first, err := tr.NodeCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Name != "Syn" || first.Ord != 1 || first.Parent != 0 {
		t.Fatalf("first child = %+v", first)
	}
	if _, err := tr.NodeCtx(context.Background(), 99); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node error = %v", err)
	}
	if _, err := tr.NodeByNameCtx(context.Background(), "Ghost"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing name error = %v", err)
	}
}

// TestStoredLCAMatchesPaper replays the paper's cross-layer walkthrough
// against the relational store.
func TestStoredLCAMatchesPaper(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	syn, _ := tr.NodeByNameCtx(context.Background(), "Syn")
	lla, _ := tr.NodeByNameCtx(context.Background(), "Lla")
	spy, _ := tr.NodeByNameCtx(context.Background(), "Spy")
	l, err := tr.LCACtx(context.Background(), syn.ID, lla.ID)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0 {
		t.Fatalf("LCA(Syn, Lla) = %d, want root (0)", l)
	}
	l, err = tr.LCACtx(context.Background(), lla.ID, spy.ID)
	if err != nil {
		t.Fatal(err)
	}
	lrow, _ := tr.NodeCtx(context.Background(), l)
	if lrow.Leaf || lrow.Depth != 2 {
		t.Fatalf("LCA(Lla, Spy) = %+v, want y at depth 2", lrow)
	}
}

func TestFrontierMatchesInMemory(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	front, err := frontierNodes(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 4 {
		t.Fatalf("frontier size = %d, want 4 (paper §2.2)", len(front))
	}
	names := map[string]bool{}
	for _, n := range front {
		names[n.Name] = true
	}
	for _, want := range []string{"Bha", "Syn", "Bsu"} {
		if !names[want] {
			t.Fatalf("frontier missing %s", want)
		}
	}
	// Strictness at the boundary.
	front, err = frontierNodes(tr, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range front {
		if n.Dist <= 1.25 {
			t.Fatalf("node at dist %g included at time 1.25", n.Dist)
		}
	}
}

func TestLeavesUnderAndClade(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	lla, _ := tr.NodeByNameCtx(context.Background(), "Lla")
	spy, _ := tr.NodeByNameCtx(context.Background(), "Spy")
	yID, err := tr.LCACtx(context.Background(), lla.ID, spy.ID)
	if err != nil {
		t.Fatal(err)
	}
	y, err := tr.NodeCtx(context.Background(), yID)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := tr.leafIDs(context.Background(), y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 2 {
		t.Fatalf("leaves under y = %d", len(leaves))
	}
	clade, err := tr.MinimalSpanningCladeCtx(context.Background(), []int{lla.ID, spy.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(clade) != 3 { // y, Lla, Spy
		t.Fatalf("clade size = %d, want 3", len(clade))
	}
	// Clade of Syn and Lla spans the whole tree.
	syn, _ := tr.NodeByNameCtx(context.Background(), "Syn")
	clade, err = tr.MinimalSpanningCladeCtx(context.Background(), []int{syn.ID, lla.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(clade) != 8 {
		t.Fatalf("root clade size = %d, want 8", len(clade))
	}
}

func TestStoredSampling(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	r := rand.New(rand.NewSource(2))
	got, err := tr.SampleUniformCtx(context.Background(), 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("sampled %d", len(got))
	}
	seen := map[int]bool{}
	for _, n := range got {
		if !n.Leaf || seen[n.ID] {
			t.Fatalf("bad sample %+v", got)
		}
		seen[n.ID] = true
	}
	if _, err := tr.SampleUniformCtx(context.Background(), 6, r); err == nil {
		t.Fatal("oversample accepted")
	}
	// Time-constrained: replicate the paper's walkthrough.
	for seed := int64(0); seed < 20; seed++ {
		rr := rand.New(rand.NewSource(seed))
		got, err := tr.SampleWithTimeCtx(context.Background(), 1, 4, rr)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, n := range got {
			names[n.Name] = true
		}
		if !names["Bha"] || !names["Syn"] || !names["Bsu"] {
			t.Fatalf("seed %d: sample = %v", seed, names)
		}
		if !names["Lla"] && !names["Spy"] {
			t.Fatalf("seed %d: neither Lla nor Spy sampled", seed)
		}
	}
	if _, err := tr.SampleWithTimeCtx(context.Background(), 100, 1, r); err == nil {
		t.Fatal("empty frontier accepted")
	}
}

// TestStoredProjectionFigure2 reproduces Figure 2 against the store.
func TestStoredProjectionFigure2(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	got, err := tr.ProjectNamesCtx(context.Background(), []string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	mem := phylo.PaperFigure1()
	ix, _ := core.Build(mem, 2)
	want, err := project.NewPlanner(mem, ix).ProjectNames([]string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(got, want, 1e-12) {
		t.Fatal("stored projection differs from in-memory projection")
	}
}

// TestStoredProjectionMatchesMemoryProperty cross-checks projections on
// random trees and selections.
func TestStoredProjectionMatchesMemoryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gold, err := treegen.Yule(30+r.Intn(50), 1, r)
		if err != nil {
			return false
		}
		fanout := 2 + r.Intn(5)
		s := OpenMem()
		defer s.Close()
		st := loadOpen(t, s, "t", gold, fanout)
		sel, err := sample.Uniform(gold, 2+r.Intn(10), r)
		if err != nil {
			return false
		}
		ids := make([]int, len(sel))
		names := make([]string, len(sel))
		for i, n := range sel {
			ids[i] = n.ID
			names[i] = n.Name
		}
		got, err := st.ProjectCtx(context.Background(), ids)
		if err != nil {
			t.Logf("stored project: %v", err)
			return false
		}
		ix, err := core.Build(gold, fanout)
		if err != nil {
			return false
		}
		want, err := project.NewPlanner(gold, ix).ProjectNames(names)
		if err != nil {
			return false
		}
		return phylo.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("fig1", phylo.PaperFigure1(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sn := s.Snapshot()
	defer sn.Close()
	infos, err := sn.TreesCtx(context.Background())
	if err != nil || len(infos) != 1 || infos[0].Name != "fig1" {
		t.Fatalf("Trees after reopen = %v, %v", infos, err)
	}
	tr, err := sn.Tree("fig1")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := tr.NodeByNameCtx(context.Background(), "Syn")
	if err != nil || syn.Dist != 2.5 {
		t.Fatalf("Syn after reopen = %+v, %v", syn, err)
	}
	lla, _ := tr.NodeByNameCtx(context.Background(), "Lla")
	l, err := tr.LCACtx(context.Background(), syn.ID, lla.ID)
	if err != nil || l != 0 {
		t.Fatalf("LCA after reopen = %d, %v", l, err)
	}
}

func TestDelete(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("a", phylo.PaperFigure1(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("b", phylo.PaperFigure1(), 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Close()
	if _, err := sn.Tree("a"); !errors.Is(err, ErrNoTree) {
		t.Fatalf("deleted tree still opens: %v", err)
	}
	if _, err := sn.Tree("b"); err != nil {
		t.Fatalf("sibling tree lost: %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNoTree) {
		t.Fatalf("double delete error = %v", err)
	}
}

func TestDeepStoredTree(t *testing.T) {
	// A deep caterpillar exercises multi-layer storage-backed LCA.
	r := rand.New(rand.NewSource(4))
	gold, err := treegen.Caterpillar(800, r)
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st := loadOpen(t, s, "deep", gold, 8)
	if st.Info().Layers < 3 {
		t.Fatalf("layers = %d, expected >= 3 for depth 800 at f=8", st.Info().Layers)
	}
	ix, _ := core.Build(gold, 8)
	for i := 0; i < 100; i++ {
		a, b := r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes())
		want := ix.LCA(a, b)
		got, err := st.LCACtx(context.Background(), a, b)
		if err != nil || got != want {
			t.Fatalf("deep LCA(%d,%d) = %d,%v want %d", a, b, got, err, want)
		}
	}
}

// TestCorruptRelationsAreErrors damages a committed tree's relations and
// queries them: relations that contradict each other give phylo.LCA's answer
// or ErrNoNode, never another node, an index out of range or a walk that
// does not end. The tree is balanced, 12 levels deep at f=2, so a pair of
// leaves from the root's two halves meets at the root, far above both
// leaves' layer-0 subtrees: the walk cannot answer it from layer 0 and runs
// the layered recursion over the subs rows.
func TestCorruptRelationsAreErrors(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	gold, err := treegen.Balanced(12, r)
	if err != nil {
		t.Fatal(err)
	}
	nodes := gold.Nodes()
	left, right := gold.Root.Children[0], gold.Root.Children[1]
	s := OpenMem()
	defer s.Close()
	for name, f := range map[string]int{"deep": 2, "other": 1} {
		if _, err := s.Load(name, gold, f, nil); err != nil {
			t.Fatal(err)
		}
	}
	db := s.dbs[0]
	table := func(name string) *relstore.Table {
		t.Helper()
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	// ask runs LCA(a, b) and fails the test on an answer that is neither
	// phylo.LCA's nor ErrNoNode; it reports whether the walk failed.
	ask := func(st *Tree, a, b int) bool {
		t.Helper()
		got, err := st.LCACtx(context.Background(), a, b)
		if err != nil {
			if !errors.Is(err, ErrNoNode) {
				t.Fatalf("LCA(%d,%d): err = %v, want ErrNoNode", a, b, err)
			}
			return true
		}
		if want := phylo.LCA(nodes[a], nodes[b]).ID; got != want {
			t.Fatalf("LCA(%d,%d) = %d on corrupt relations, want %d or ErrNoNode", a, b, got, want)
		}
		return false
	}
	layers := openTreeOf(t, s, "deep").Info().Layers
	if layers < 3 {
		t.Fatalf("the balanced tree has %d layers at f=2, want several", layers)
	}

	// Subtree links that belong to another decomposition: the source a side
	// enters through need not lie in the subtree the upper layer named.
	for k := 0; k < layers; k++ {
		var rows []relstore.Tuple
		if err := table(subsTable("other", k)).ScanRange(relstore.Value{}, relstore.Value{}, func(row relstore.Row) (bool, error) {
			vals, err := row.Tuple()
			rows = append(rows, vals)
			return true, err
		}); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := table(subsTable("deep", k)).Put(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	st := openTreeOf(t, s, "deep")
	failed := 0
	for i := 0; i < 200; i++ {
		a := left.ID + r.Intn(right.ID-left.ID)
		b := right.ID + r.Intn(len(nodes)-right.ID)
		if ask(st, a, b) {
			failed++
		}
		ask(st, r.Intn(len(nodes)), r.Intn(len(nodes)))
	}
	if failed == 0 {
		t.Fatal("no LCA across the root failed; the fixture no longer corrupts anything")
	}

	// A catalog row that claims fewer layers than the node rows imply.
	info := st.Info()
	err = table("trees").Put(relstore.Tuple{
		relstore.Str("other"), relstore.Int(int64(info.Nodes)), relstore.Int(int64(info.Leaves)),
		relstore.Int(1), relstore.Int(1), relstore.Int(int64(info.Depth)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := openTreeOf(t, s, "other").LCACtx(context.Background(), left.ID+1, len(nodes)-1); !errors.Is(err, ErrNoNode) {
		t.Fatalf("LCA on a tree missing its layers: err = %v, want ErrNoNode", err)
	}

	// A subtree size below one or running past the tree, on a leaf and on its
	// parent, which the climb from the leaf to its sibling reads.
	leaf := nodes[len(nodes)-1]
	sibling := leaf.Parent.Children[0]
	for _, victim := range []*phylo.Node{leaf, leaf.Parent} {
		for _, size := range []int{0, -3, len(nodes) - victim.ID + 1} {
			t.Run(fmt.Sprintf("node=%d/size=%d", victim.ID, size), func(t *testing.T) {
				s := OpenMem()
				defer s.Close()
				if _, err := s.Load("t", gold, 2, nil); err != nil {
					t.Fatal(err)
				}
				tab, err := s.dbs[0].Table(nodesTable("t"))
				if err != nil {
					t.Fatal(err)
				}
				row, ok, err := tab.Get(relstore.Int(int64(victim.ID)))
				if err != nil || !ok {
					t.Fatalf("row %d: %v, %v", victim.ID, ok, err)
				}
				tup, err := row.Tuple()
				if err != nil {
					t.Fatal(err)
				}
				tup[colSize] = relstore.Int(int64(size))
				if err := tab.Put(tup); err != nil {
					t.Fatal(err)
				}
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				st := openTreeOf(t, s, "t")
				if got, err := st.LCACtx(context.Background(), leaf.ID, sibling.ID); !errors.Is(err, ErrNoNode) {
					t.Fatalf("LCA(%d,%d) with node %d's size %d = %d, %v; want ErrNoNode", leaf.ID, sibling.ID, victim.ID, size, got, err)
				}
			})
		}
	}
}
