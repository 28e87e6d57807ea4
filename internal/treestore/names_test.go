package treestore

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/phylo"
	"repro/internal/treegen"
)

// bigYule is the 10k-leaf tree of TestProjectCacheCutsDecodesAndDescents
// with the same seeded 50-leaf sample, on a snapshot.
func bigYule(t *testing.T) (snap *Tree, sel []Node) {
	t.Helper()
	if testing.Short() {
		t.Skip("10k-leaf tree load")
	}
	gold, err := treegen.Yule(10000, 1.0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	t.Cleanup(func() { s.Close() })
	if _, err = s.Load("big", gold, 4, nil); err != nil {
		t.Fatal(err)
	}
	snap = openTreeOf(t, s, "big")
	if sel, err = snap.SampleUniformCtx(context.Background(), 50, rand.New(rand.NewSource(12))); err != nil {
		t.Fatal(err)
	}
	return snap, sel
}

// countdownCtx is a context that reports cancellation from its n-th Err
// call on, to cancel in the middle of one call.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// nodesByNameCtx is nodesByName on a memo of its own, every row decoded.
func (t *Tree) nodesByNameCtx(ctx context.Context, names []string) ([]Node, error) {
	rows, err := t.nodesByName(ctx, newCellMemo(t), names)
	if err != nil {
		return nil, err
	}
	nodes := make([]Node, len(rows))
	for i, row := range rows {
		if nodes[i], err = nodeOf(ctx, row); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// TestNodesByName checks the batched name lookup against NodeCtx: argument
// order under a permuted input with repeats; unknown names; cancellation between two stretches of the sweep; and
// its cost next to one lookup per name.
func TestNodesByName(t *testing.T) {
	snap, sel := bigYule(t)
	ctx := context.Background()
	names := make([]string, 0, len(sel)+3)
	want := make([]Node, 0, len(sel)+3)
	for _, i := range rand.New(rand.NewSource(3)).Perm(len(sel)) {
		names = append(names, sel[i].Name)
		want = append(want, sel[i])
	}
	for _, i := range []int{7, 7, 0} { // repeats
		names = append(names, names[i])
		want = append(want, want[i])
	}
	got, err := snap.nodesByNameCtx(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows for %d names", len(got), len(names))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d]=%q resolved to %+v, want %+v", i, names[i], got[i], want[i])
		}
		if byID, err := snap.NodeCtx(ctx, got[i].ID); err != nil || byID != got[i] {
			t.Fatalf("row read in place %+v differs from NodeCtx's %+v (%v)", got[i], byID, err)
		}
	}

	withGhost := append(append([]string{}, names[:20]...), "no-such-taxon")
	withGhost = append(withGhost, names[20:]...)
	if _, err := snap.nodesByNameCtx(ctx, withGhost); !errors.Is(err, ErrNoNode) || !strings.Contains(err.Error(), `"no-such-taxon"`) {
		t.Fatalf("unknown name: err = %v, want ErrNoNode naming it", err)
	}
	if _, err := snap.NodeByNameCtx(ctx, "zzz-after-every-name"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("name past the last entry: err = %v, want ErrNoNode", err)
	}
	if rows, err := snap.nodesByNameCtx(ctx, nil); err != nil || len(rows) != 0 {
		t.Fatalf("no names: %d rows, err = %v", len(rows), err)
	}

	// The sweep looks at its context every 64 names: with 100 names, a
	// context that dies after the first look aborts the sweep halfway.
	many := make([]string, 0, 100)
	for len(many) < 100 {
		many = append(many, names...)
	}
	many = many[:100]
	if _, err := snap.nodesByNameCtx(&countdownCtx{Context: ctx, left: 1}, many); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-sweep: err = %v, want context.Canceled", err)
	}
	if _, err := snap.nodesByNameCtx(&countdownCtx{Context: ctx, left: 1 << 20}, many); err != nil {
		t.Fatalf("uncancelled countdown context: %v", err)
	}

	// Cost: one lookup per name is two descents a name. The sweep takes one
	// per distinct by_name leaf and one per distinct nodes leaf (relstore's
	// TestIndexGetBatch pins that equality), which 50 leaves drawn from 10k
	// mostly do not share — but never more than the two a name.
	cctx, span := counterCtx()
	for _, n := range sel {
		if _, err := snap.NodeByNameCtx(cctx, n.Name); err != nil {
			t.Fatal(err)
		}
	}
	single := total(span, "btree_descents")
	cctx, span = counterCtx()
	if _, err := snap.nodesByNameCtx(cctx, names); err != nil {
		t.Fatal(err)
	}
	batched := total(span, "btree_descents")
	t.Logf("%d names: %d descents one by one, %d in one sweep", len(sel), single, batched)
	if single != int64(2*len(sel)) || batched == 0 || batched > single {
		t.Fatalf("descents: %d one by one (want %d), %d batched (want 1..%d)", single, 2*len(sel), batched, single)
	}
}

// TestProjectNamesSkipsTheRefetch pins what the sweep and the held leaves
// remove from a projection by name: two lookups a name, the 50 rows read
// again by id and a descent for every layer-0 cell of the walk took 326
// descents; the sweep and whole-leaf reads 211; with the nodes leaves the
// sweep read kept for the walk, and no second descent for an LCA's row, the
// deterministic count is 156, one per distinct leaf (TestNoLeafTwice), and
// the ceiling ~10% over it. The answer is the projection by id.
func TestProjectNamesSkipsTheRefetch(t *testing.T) {
	snap, sel := bigYule(t)
	names := make([]string, len(sel))
	ids := make([]int, len(sel))
	for i, n := range sel {
		names[i], ids[i] = n.Name, n.ID
	}
	want, err := snap.ProjectCtx(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	ctx, span := counterCtx()
	got, err := snap.ProjectNamesCtx(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(got, want, 0) {
		t.Fatal("projection by name differs from projection by id")
	}
	const maxDescents = 172
	d := total(span, "btree_descents")
	t.Logf("ProjectNamesCtx(k=50): %d descents", d)
	if d == 0 || d > maxDescents {
		t.Fatalf("ProjectNamesCtx(k=50) took %d descents, want 1..%d", d, maxDescents)
	}
}

// TestStoredQueryAllocations holds the stored queries on the 10k-leaf tree
// (f=4, seven layers; snapshot handle, pool warm) under
// allocation ceilings ~10% over the counts recorded (the higher of a plain and
// a -race run, whose sync.Pool drops a quarter of what it is given). A
// buffer-pool frame keeps the node decoded from its image, so reading a
// resident page allocates nothing, a request's memo comes from a pool with
// its readers, which keep their first leaves in themselves and open the layer
// relations only for a walk: an LCA and a k=50 projection take 4 and 282 —
// 8 and 283 while every request allocated its memo and readers, 15 and 298
// while every relation's reader was opened with the request and its held
// leaves grew in a slice of their own, 37 and 544 while every node read
// allocated a node and its cell offsets, 161 and 2 559 with one run of
// integers per leaf read, 3 334 and 39 477 when every key and value of every
// node touched was copied. The scans read rows where they lie: a clade of a
// few hundred nodes takes 148 (149; 153 before; 167 with a node allocated per
// page read, 462 when a scan built a Tuple and a Node of every row), a k=50
// uniform sample 67 (68; 67; 241; 559 when every draw was decoded, leaf or
// not) and a k=50 sample beyond 0.8 of the height — some 1 600 frontier
// clades — 3 053 (3 054; 3 077 while the frontier's leaf list grew by
// doubling; 20 682 while the frontier decoded each of its nodes and scanned
// each clade alone; 84 723 when every row beyond the frontier was decoded).
func TestStoredQueryAllocations(t *testing.T) {
	snap, sel := bigYule(t)
	ids := make([]int, len(sel))
	for i, n := range sel {
		ids[i] = n.ID
	}
	ctx := context.Background()
	if _, err := snap.ProjectCtx(ctx, ids); err != nil { // warms the pool
		t.Fatal(err)
	}
	cladeRoot, height := 0, 0.0
	for _, n := range sel {
		height = max(height, n.Dist)
	}
	for id := 1; cladeRoot == 0; id++ {
		if n, err := snap.NodeCtx(ctx, id); err != nil {
			t.Fatal(err)
		} else if n.Size >= 150 && n.Size <= 300 {
			cladeRoot = id
		}
	}
	measure := func(runs int, query func() error) float64 {
		return testing.AllocsPerRun(runs, func() {
			if err := query(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, q := range []struct {
		name  string
		runs  int
		max   float64
		query func() error
	}{
		{"LCACtx", 20, 5, func() error { _, err := snap.LCACtx(ctx, ids[0], ids[49]); return err }},
		{"ProjectCtx(k=50)", 5, 300, func() error { _, err := snap.ProjectCtx(ctx, ids); return err }},
		{"MinimalSpanningCladeCtx", 5, 160, func() error {
			_, err := snap.MinimalSpanningCladeCtx(ctx, []int{cladeRoot})
			return err
		}},
		{"SampleUniformCtx(k=50)", 5, 72, func() error {
			_, err := snap.SampleUniformCtx(ctx, 50, rand.New(rand.NewSource(12)))
			return err
		}},
		{"SampleWithTimeCtx(k=50)", 5, 3300, func() error {
			_, err := snap.SampleWithTimeCtx(ctx, 0.8*height, 50, rand.New(rand.NewSource(12)))
			return err
		}},
	} {
		got := measure(q.runs, q.query)
		t.Logf("%s allocates %v times", q.name, got)
		if got > q.max {
			t.Errorf("%s allocates %v times, want <= %v", q.name, got, q.max)
		}
	}
}

// TestTreeOpenAllocations holds opening a tree to its allocation ceiling: a
// snapshot, Tree and Close at an unchanged epoch, on a depth-20k caterpillar
// (f=16, four layers, so nine tables to open). The snapshots of one epoch
// share their table views, so only the first decodes the nine catalog
// entries, and the rest look each one up by the parts of its name: they take
// 7 allocations — 17 while every open spelled the eight names of the tree's
// relations and encoded the catalog key on the heap, 30 while the table
// names were formatted with fmt.Sprintf and the handle's view lists grew by
// appending, 296 when every snapshot decoded the catalog entries again.
func TestTreeOpenAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-leaf tree load")
	}
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("cat", goldCaterpillar(t, 20000), 16, nil); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 8
	got := testing.AllocsPerRun(50, func() {
		sn := s.Snapshot()
		defer sn.Close()
		tr, err := sn.Tree("cat")
		if err != nil {
			t.Fatal(err)
		}
		if tr.Info().Layers != 4 {
			t.Fatalf("caterpillar has %d layers, want 4", tr.Info().Layers)
		}
	})
	t.Logf("snapshot + Tree + Close allocates %v times", got)
	if got > maxAllocs {
		t.Errorf("snapshot + Tree + Close allocates %v times, want <= %d", got, maxAllocs)
	}
}
