package treestore

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/newick"
	"repro/internal/treegen"
)

// yule20k is the benchmark's tree shape — 20k leaves, f=16 — with a seeded
// 50-leaf sample.
func yule20k(t *testing.T) (*Tree, []Node) {
	t.Helper()
	if testing.Short() {
		t.Skip("20k-leaf tree load")
	}
	gold, err := treegen.Yule(20000, 1.0, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	st := loadTree(t, gold, 16)
	sel, err := st.SampleUniformCtx(context.Background(), 50, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	return st, sel
}

// held is the number of storage leaves the readers of a memo that started
// with the whole budget hold.
func (m *cellMemo) held() int64 { return int64(memoMaxLeaves - m.budget) }

// TestNoLeafTwice pins the contract of the request memo on the k=50
// projection by name of the 20k-leaf tree: every descent past the by_name
// sweep adds one leaf to what the memo holds — so none re-enters a leaf the
// request has been to, for a row of an id whose cell it had or for a leaf
// the sweep had read — and the same request again on the same memo takes the
// by_name sweep's descents and not one more. The request that kept a leaf's
// integers took 305 descents, 82 of them into leaves it had read.
func TestNoLeafTwice(t *testing.T) {
	st, sel := yule20k(t)
	names := make([]string, len(sel))
	for i, n := range sel {
		names[i] = n.Name
	}
	memo := newCellMemo(st)
	// run is the request in its two halves: the descents of each, and the
	// leaves the memo held between them.
	run := func() (sweep, swept, walk int64, nwk string) {
		ctx, span := counterCtx()
		sel, err := st.verticesByName(ctx, memo, names)
		if err != nil {
			t.Fatal(err)
		}
		sweep, swept = total(span, "btree_descents"), memo.held()
		ctx, span = counterCtx()
		tr, err := st.project(ctx, memo, sel)
		if err != nil {
			t.Fatal(err)
		}
		return sweep, swept, total(span, "btree_descents"), newick.String(tr)
	}
	sweep, swept, walk, want := run()
	held := memo.held()
	t.Logf("%d descents: %d in the sweep, which left %d nodes leaves held; %d in the walk, which left %d", sweep+walk, sweep, swept, walk, held)
	if swept == 0 || swept > int64(len(names)) || walk != held-swept {
		t.Fatalf("the walk took %d descents and the leaves held went from %d to %d: a leaf was gone to twice", walk, swept, held)
	}
	if sweep+walk > 240 {
		t.Fatalf("projection by name took %d descents, want <= 240", sweep+walk)
	}
	// Again on the same memo: the by_name index is swept again — its leaves
	// are the one thing a request does not hold — and that is all, which also
	// shows the first sweep went to each nodes leaf once.
	sweep2, _, walk2, got := run()
	if sweep2 != sweep-swept || walk2 != 0 || memo.held() != held {
		t.Fatalf("the same request again: %d + %d descents and %d leaves held, want %d + 0 and %d", sweep2, walk2, memo.held(), sweep-swept, held)
	}
	if got != want {
		t.Fatal("the same request again on the same memo answers differently")
	}
	ctx, span := counterCtx()
	if tr, err := st.ProjectNamesCtx(ctx, names); err != nil || newick.String(tr) != want {
		t.Fatalf("ProjectNamesCtx differs from its two halves (err %v)", err)
	}
	if d := total(span, "btree_descents"); d != sweep+walk {
		t.Fatalf("ProjectNamesCtx took %d descents, its two halves %d", d, sweep+walk)
	}
}

// TestMemoLeafBudget forces the leaf budget down — to one leaf, to none, to
// fewer than the request touches — and requires every answer of the
// by-name queries to stay what it is with the whole budget, and the memo to
// hold no more than it was given.
func TestMemoLeafBudget(t *testing.T) {
	st, sel := yule20k(t)
	names := make([]string, len(sel))
	for i, n := range sel {
		names[i] = n.Name
	}
	ctx := context.Background()
	type answer struct {
		project string
		clade   []Node
		lca     Node
	}
	// ask runs the three queries on memos of the given budget; held is the
	// most leaves one of them ended up holding.
	ask := func(budget int) (a answer, held int) {
		t.Helper()
		var memos []*cellMemo
		memo := func() *cellMemo {
			m := newCellMemo(st)
			m.budget = budget
			memos = append(memos, m)
			return m
		}
		m := memo()
		sel, err := st.verticesByName(ctx, m, names)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(sel))
		for i, v := range sel {
			ids[i] = v.ID
		}
		tr, err := st.project(ctx, m, sel)
		if err != nil {
			t.Fatal(err)
		}
		a.project = newick.String(tr)
		if a.clade, err = st.clade(ctx, memo(), ids); err != nil {
			t.Fatal(err)
		}
		m = memo()
		l, err := st.lca(ctx, m, ids[0], ids[len(ids)-1])
		if err != nil {
			t.Fatal(err)
		}
		if a.lca, err = st.nodeRow(ctx, m, l); err != nil {
			t.Fatal(err)
		}
		for _, m := range memos {
			if m.budget < 0 {
				t.Fatalf("budget %d overdrawn to %d", budget, m.budget)
			}
			held = max(held, budget-m.budget)
		}
		return a, held
	}
	want, touched := ask(memoMaxLeaves)
	if touched < 100 {
		t.Fatalf("the reference request held %d leaves, the fixture is meant to touch over 100", touched)
	}
	for _, budget := range []int{0, 1, 40} {
		got, held := ask(budget)
		if held != budget {
			t.Fatalf("budget %d: the memo held %d leaves of the %d the request touches", budget, held, touched)
		}
		if got.project != want.project || got.lca != want.lca || !slices.Equal(got.clade, want.clade) {
			t.Fatalf("budget %d: answers differ from the whole budget's", budget)
		}
	}
}

// TestMemoOpensLayerReadersForAWalk: a request memo opens the readers of the
// layer and subs relations at the walk's first read of them, not before — a
// name lookup or a frontier pass reads the nodes relation alone and opens
// none — and the readers it opens draw on the memo's one leaf budget.
func TestMemoOpensLayerReadersForAWalk(t *testing.T) {
	st := loadTree(t, goldCaterpillar(t, 2000), 4)
	if st.info.Layers < 3 {
		t.Fatalf("a depth-2000 caterpillar at f=4 has %d layers, want several", st.info.Layers)
	}
	ctx := context.Background()
	memo := newCellMemo(st)
	ids, err := st.idsByName(ctx, memo, []string{"taxon000007", "taxon001900"})
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := st.beyondCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.frontierCtx(ctx, memo, beyond); err != nil {
		t.Fatal(err)
	}
	if len(memo.upper) != 0 {
		t.Fatalf("a name lookup and a frontier pass opened %d layer and subs readers", len(memo.upper))
	}
	nodesHeld := memo.held()
	l, err := st.lca(ctx, memo, ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := len(st.subs) + len(st.layers); len(memo.upper) != want {
		t.Fatalf("the walk opened %d layer and subs readers, want %d", len(memo.upper), want)
	}
	if memo.held() <= nodesHeld {
		t.Fatalf("the walk's readers held %d leaves beyond the nodes reader's %d: not on the memo's budget", memo.held()-nodesHeld, nodesHeld)
	}
	if want, err := st.LCACtx(ctx, ids[0], ids[1]); err != nil || l != want {
		t.Fatalf("LCA through the lookup's memo = %d, LCACtx = %d (%v)", l, want, err)
	}
}
