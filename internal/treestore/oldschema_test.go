package treestore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/newick"
	"repro/internal/relstore"
	"repro/internal/treegen"
)

// TestOldNodesSchemaStillWorks: a tree stored before the children walk came
// off the preorder ids has a node relation with a third secondary index,
// by_parent. Every query — the §2.2 ones, the node lookups and the lookups
// under them — answers on it exactly as on the same tree stored now, and deleting
// the tree leaves Check green, as does every commit before it.
func TestOldNodesSchemaStillWorks(t *testing.T) {
	gold, err := treegen.Yule(600, 1.0, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{OpenMem(), OpenMem()}
	for _, s := range stores {
		defer s.Close()
		if _, err := s.Load("t", gold, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Store the first one's node relation again, under the old schema.
	db := stores[0].dbs[0]
	tab, err := db.Table(nodesTable("t"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []relstore.Tuple
	if err := tab.ScanRange(relstore.Value{}, relstore.Value{}, func(row relstore.Row) (bool, error) {
		tup, err := row.Tuple()
		rows = append(rows, tup)
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	schema := nodesSchema("t")
	schema.Indexes = append(schema.Indexes, relstore.Index{Name: "by_parent", Columns: []string{"parent"}})
	if err := db.DropTable(schema.Name); err != nil {
		t.Fatal(err)
	}
	if tab, err = db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	var got [2]string
	for i, s := range stores {
		if err := s.dbs[0].Check(); err != nil {
			t.Fatalf("store %d: Check: %v", i, err)
		}
		tr := openTreeOf(t, s, "t")
		if n, want := len(tr.nodes.Schema().Indexes), 3-i; n != want {
			t.Fatalf("store %d: the node relation has %d secondary indexes, want %d", i, n, want)
		}
		got[i] = everyAnswer(t, tr)
	}
	if got[0] != got[1] {
		t.Fatal("a tree stored with by_parent answers differently from one stored without it")
	}
	for i, s := range stores {
		if err := s.Delete("t"); err != nil {
			t.Fatal(err)
		}
		if err := s.dbs[0].Check(); err != nil {
			t.Fatalf("store %d: Check after the delete: %v", i, err)
		}
	}
}

// everyAnswer renders what every query of a tree answers, at fixed arguments
// and seeds.
func everyAnswer(t *testing.T, tr *Tree) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	say := func(what string, v any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fmt.Fprintf(&b, "%s: %v\n", what, v)
	}
	info := tr.Info()
	sel, err := tr.SampleUniformCtx(ctx, 30, rand.New(rand.NewSource(52)))
	say("uniform sample", sel, err)
	many, err := tr.SampleUniformCtx(ctx, info.Leaves-5, rand.New(rand.NewSource(53)))
	say("uniform sample, most leaves", many, err)
	ids, names := make([]int, len(sel)), make([]string, len(sel))
	height := 0.0
	for i, n := range sel {
		ids[i], names[i] = n.ID, n.Name
		height = max(height, n.Dist)
	}
	p, err := tr.ProjectCtx(ctx, ids)
	say("project", newick.String(p), err)
	p, err = tr.ProjectNamesCtx(ctx, names)
	say("project by name", newick.String(p), err)
	for i := 0; i+1 < len(ids); i++ {
		l, err := tr.LCACtx(ctx, ids[i], ids[i+1])
		say("lca", l, err)
		n, err := tr.LCANamesCtx(ctx, names[i], names[i+1])
		say("lca by name", n, err)
	}
	clade, err := tr.MinimalSpanningCladeCtx(ctx, ids[:3])
	say("clade", clade, err)
	clade, err = tr.CladeNamesCtx(ctx, names[:3])
	say("clade by name", clade, err)
	front, groups, err := frontierAt(ctx, tr, height/3)
	say("frontier", fmt.Sprint(front, groups), err)
	timed, err := tr.SampleWithTimeCtx(ctx, height/3, 20, rand.New(rand.NewSource(54)))
	say("time sample", timed, err)
	nodes, err := tr.nodesByNameCtx(ctx, names)
	say("by name", nodes, err)
	for id := 0; id < info.Nodes; id++ {
		n, err := tr.NodeCtx(ctx, id)
		say("node", n, err)
	}
	export, err := tr.ExportCtx(ctx)
	say("export", newick.String(export), err)
	var stream strings.Builder
	err = tr.ExportNewickTo(ctx, &stream)
	say("streamed export", stream.String(), err)
	return b.String()
}
