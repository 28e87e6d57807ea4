package relstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
)

// viewRows reads every row of a table view as "key=text" strings, in key
// order, with the column count of the schema it was decoded with.
func viewRows(t testing.TB, v *TableView) (cols int, rows []string) {
	t.Helper()
	err := v.ScanCtx(context.Background(), func(stored Row) (bool, error) {
		row, err := stored.Tuple()
		if err != nil {
			return false, err
		}
		rows = append(rows, fmt.Sprintf("%d=%s", row[0].i, row[len(row)-1].Text()))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return len(v.Schema().Columns), rows
}

// snapTable opens the named table on a snapshot, failing the test on error.
func snapTable(t testing.TB, sn *Snap, name string) *TableView {
	t.Helper()
	v, err := sn.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// putRows writes rows id -> text for the ids in [0, n) and commits.
func putRows(t testing.TB, db *DB, tab *Table, n int, text string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tab.Put(Tuple{Int(int64(i)), Str(text)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotsOfOneEpochShareViews: two snapshots of one epoch get the same
// view of a table, whichever opens it first; a snapshot taken after a commit
// gets a view of its own, and the older view keeps reading its epoch.
func TestSnapshotsOfOneEpochShareViews(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(snapTestSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	putRows(t, db, tab, 3, "a")

	a, b := db.Snapshot(), db.Snapshot()
	defer a.Close()
	defer b.Close()
	va := snapTable(t, b, "t")
	if vb := snapTable(t, a, "t"); vb != va {
		t.Fatal("two snapshots of one epoch decoded the table twice")
	}

	putRows(t, db, tab, 3, "b")
	c := db.Snapshot()
	defer c.Close()
	vc := snapTable(t, c, "t")
	if vc == va {
		t.Fatal("a snapshot after a commit reuses the view of the epoch before")
	}
	if _, rows := viewRows(t, va); fmt.Sprint(rows) != "[0=a 1=a 2=a]" {
		t.Fatalf("old view reads %v", rows)
	}
	if _, rows := viewRows(t, vc); fmt.Sprint(rows) != "[0=b 1=b 2=b]" {
		t.Fatalf("new view reads %v", rows)
	}
	if d := db.Snapshot(); snapTable(t, d, "t") != vc {
		t.Fatal("a second snapshot of the new epoch decoded the table again")
	} else {
		d.Close()
	}
}

// TestSnapshotBindsItsEpochsViews plants shared views by hand to pin which
// ones a new snapshot binds to: those of its epoch and catalog root only. A
// holder of an older epoch is replaced, even under the same catalog root (its
// trees are pinned to that epoch); one of the same epoch under another root,
// or of a newer epoch, is left in place and the snapshot decodes its own.
func TestSnapshotBindsItsEpochsViews(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(snapTestSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	putRows(t, db, tab, 1, "x")
	sn := db.Snapshot()
	defer sn.Close()
	epoch, root := sn.Epoch(), sn.ss.Root(catalogRootSlot)
	if sn.views != db.views.Load() {
		t.Fatal("the newest snapshot did not install its views")
	}
	for _, tc := range []struct {
		name    string
		epoch   uint64
		root    storage.PageID
		replace bool
	}{
		{"older epoch", epoch - 1, root, true},
		{"same epoch, other root", epoch, root + 1, false},
		{"newer epoch", epoch + 1, root, false},
	} {
		planted := &TableView{}
		held := &epochViews{epoch: tc.epoch, root: tc.root, views: map[string]*TableView{"t": planted}}
		db.views.Store(held)
		s := db.Snapshot()
		if v := snapTable(t, s, "t"); v == planted {
			t.Errorf("%s: the snapshot read a view decoded for epoch %d, root %d", tc.name, tc.epoch, tc.root)
		}
		if got := db.views.Load(); (got == s.views) != tc.replace || (got == held) == tc.replace {
			t.Errorf("%s: shared views replaced=%v, want %v", tc.name, got == s.views, tc.replace)
		}
		s.Close()
	}
}

// TestSnapshotBeforeCommitReadsItsEpoch: a snapshot taken before a commit
// whose first Table call comes after it reads its own epoch — whether a newer
// snapshot has already opened the table or not.
func TestSnapshotBeforeCommitReadsItsEpoch(t *testing.T) {
	for _, newerFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("newerFirst=%v", newerFirst), func(t *testing.T) {
			db := OpenMemDB()
			defer db.Close()
			tab, err := db.CreateTable(snapTestSchema("t"))
			if err != nil {
				t.Fatal(err)
			}
			putRows(t, db, tab, 2, "old")
			before := db.Snapshot()
			defer before.Close()
			putRows(t, db, tab, 4, "new")
			after := db.Snapshot()
			defer after.Close()
			var vAfter *TableView
			if newerFirst {
				vAfter = snapTable(t, after, "t")
			}
			vBefore := snapTable(t, before, "t")
			if !newerFirst {
				vAfter = snapTable(t, after, "t")
			}
			if vBefore == vAfter {
				t.Fatal("snapshots of two epochs share a view")
			}
			if _, rows := viewRows(t, vBefore); fmt.Sprint(rows) != "[0=old 1=old]" {
				t.Fatalf("snapshot before the commit reads %v", rows)
			}
			if _, rows := viewRows(t, vAfter); fmt.Sprint(rows) != "[0=new 1=new 2=new 3=new]" {
				t.Fatalf("snapshot after the commit reads %v", rows)
			}
		})
	}
}

// TestRecreatedTableViewsPerEpoch: a table dropped and created again under
// the same name, with another schema and other rows, reads as the old table
// on a snapshot taken before and as the new one on a snapshot taken after —
// the old snapshot opening it only after the swap.
func TestRecreatedTableViewsPerEpoch(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(snapTestSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	putRows(t, db, tab, 3, "two-col")
	old := db.Snapshot()
	defer old.Close()

	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	tab, err = db.CreateTable(Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "weight", Type: TFloat},
			{Name: "label", Type: TString},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 12; i++ {
		if err := tab.Insert(Tuple{Int(int64(i)), Float(0.5), Str("three-col")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	cur := db.Snapshot()
	defer cur.Close()

	vCur := snapTable(t, cur, "t")
	vOld := snapTable(t, old, "t")
	if cols, rows := viewRows(t, vOld); cols != 2 || fmt.Sprint(rows) != "[0=two-col 1=two-col 2=two-col]" {
		t.Fatalf("old snapshot reads %d columns, %v", cols, rows)
	}
	if cols, rows := viewRows(t, vCur); cols != 3 || fmt.Sprint(rows) != "[10=three-col 11=three-col]" {
		t.Fatalf("new snapshot reads %d columns, %v", cols, rows)
	}
	if err := vOld.IndexScanCtx(context.Background(), "by_name", []Value{Str("two-col")}, func(Row) (bool, error) { return true, nil }); err != nil {
		t.Fatalf("old view lost its index: %v", err)
	}
}

// TestFollowerViewsPerAppliedEpoch: on a follower, every applied batch is a
// new epoch with views of its own. The writer's side refuses until a
// promote; then it opens at the root the last batch left, without a reload,
// and finds the table that arrived after the database was opened.
func TestFollowerViewsPerAppliedEpoch(t *testing.T) {
	dir := t.TempDir()
	pdb, err := OpenDB(filepath.Join(dir, "primary.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	var mu sync.Mutex
	var batches []storage.ReplBatch
	pdb.Store().SetCommitHook(func(b storage.ReplBatch) {
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
	})
	fstore, err := storage.OpenReplica(filepath.Join(dir, "follower.db"))
	if err != nil {
		t.Fatal(err)
	}
	fdb, err := NewOnStore(fstore)
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	apply := func() {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, b := range batches {
			if err := fstore.ApplyReplicated(b.Epoch, b.Pages); err != nil {
				t.Fatal(err)
			}
		}
		batches = nil
	}
	// read opens the follower's table on a fresh snapshot and checks its rows.
	read := func(want string) *TableView {
		t.Helper()
		sn := fdb.Snapshot()
		defer sn.Close()
		v := snapTable(t, sn, "t")
		if _, rows := viewRows(t, v); fmt.Sprint(rows) != want {
			t.Fatalf("follower at epoch %d reads %v, want %s", sn.Epoch(), rows, want)
		}
		return v
	}

	tab, err := pdb.CreateTable(snapTestSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	putRows(t, pdb, tab, 2, "one")
	apply()
	v1 := read("[0=one 1=one]")
	if read("[0=one 1=one]") != v1 {
		t.Fatal("two follower snapshots of one applied epoch decoded the table twice")
	}

	putRows(t, pdb, tab, 2, "two")
	apply()
	v2 := read("[0=two 1=two]")
	if v2 == v1 {
		t.Fatal("a follower snapshot after an applied batch reuses the old epoch's view")
	}

	if _, err := fdb.Table("t"); !errors.Is(err, errReplica) {
		t.Fatalf("Table on a replica: %v, want %v", err, errReplica)
	}
	if _, err := fdb.CreateTable(snapTestSchema("u")); !errors.Is(err, errReplica) {
		t.Fatalf("CreateTable on a replica: %v, want %v", err, errReplica)
	}
	if err := fdb.DropTable("t"); !errors.Is(err, errReplica) {
		t.Fatalf("DropTable on a replica: %v, want %v", err, errReplica)
	}

	if err := fstore.Promote(); err != nil {
		t.Fatal(err)
	}
	if v3 := read("[0=two 1=two]"); v3 != v2 {
		t.Fatal("a snapshot of the promoted epoch decoded the table again")
	}
	ftab, err := fdb.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	putRows(t, fdb, ftab, 3, "three")
	read("[0=three 1=three 2=three]")
}

// TestSharedViewsWholeOrNothing runs eight readers against one writer that
// commits a new generation of a table on every commit — every row rewritten,
// and every fourth generation the table dropped and created again with
// another schema — and asserts that each snapshot reads exactly one
// generation, whole (every row, all of that generation, with the schema it
// was written with), and that it is the generation its epoch committed. Run
// it under -race.
func TestSharedViewsWholeOrNothing(t *testing.T) {
	const readers, rowsPer = 8, 40
	gens := 100
	if testing.Short() {
		gens = 40
	}
	db := OpenMemDB()
	defer db.Close()
	// schemaOf is the schema generation g is written with: two columns, or
	// three on the generations after a recreate.
	schemaOf := func(g int) Schema {
		if g/4%2 == 0 {
			return snapTestSchema("t")
		}
		return Schema{
			Name:    "t",
			Columns: []Column{{Name: "id", Type: TInt}, {Name: "gen", Type: TInt}, {Name: "name", Type: TString}},
			Key:     "id",
		}
	}
	genAt := map[uint64]int{} // the generation each epoch committed
	write := func(tab *Table, g int) error {
		for i := 0; i < rowsPer; i++ {
			row := Tuple{Int(int64(i)), Str(fmt.Sprint(g))}
			if len(schemaOf(g).Columns) == 3 {
				row = Tuple{Int(int64(i)), Int(int64(g)), Str(fmt.Sprint(g))}
			}
			if err := tab.Put(row); err != nil {
				return err
			}
		}
		if err := db.Commit(); err != nil {
			return err
		}
		genAt[db.MVCC().Epoch] = g
		return nil
	}
	tab, err := db.CreateTable(schemaOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := write(tab, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for g := 1; g <= gens; g++ {
			if g%4 == 0 {
				if err := db.DropTable("t"); err != nil {
					errs <- err
					return
				}
				next, err := db.CreateTable(schemaOf(g))
				if err != nil {
					errs <- err
					return
				}
				tab = next
			}
			if err := write(tab, g); err != nil {
				errs <- err
				return
			}
		}
	}()
	read := make([][]wholeRead, readers)
	for r := range read {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					if len(read[r]) > 0 {
						return
					}
				default:
				}
				got, err := readWhole(db, rowsPer, schemaOf)
				if err != nil {
					errs <- err
					return
				}
				read[r] = append(read[r], got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for r, seen := range read {
		for _, got := range seen {
			if want, ok := genAt[got.epoch]; !ok || got.gen != want {
				t.Fatalf("reader %d: epoch %d read generation %d, want %d (committed %v)", r, got.epoch, got.gen, want, ok)
			}
		}
	}
}

// wholeRead is what one snapshot of the stress test read.
type wholeRead struct {
	epoch uint64
	gen   int
}

// readWhole checks that one snapshot of the stress test's table reads one
// generation, whole, and reports which.
func readWhole(db *DB, rowsPer int, schemaOf func(int) Schema) (wholeRead, error) {
	sn := db.Snapshot()
	defer sn.Close()
	got := wholeRead{epoch: sn.Epoch(), gen: -1}
	v, err := sn.Table("t")
	if errors.Is(err, ErrNoTable) {
		return got, fmt.Errorf("epoch %d: the table is missing", got.epoch)
	} else if err != nil {
		return got, err
	}
	n := 0
	err = v.ScanCtx(context.Background(), func(stored Row) (bool, error) {
		row, err := stored.Tuple()
		if err != nil {
			return false, err
		}
		var g int
		if _, err := fmt.Sscan(row[len(row)-1].Text(), &g); err != nil {
			return false, err
		}
		if got.gen < 0 {
			got.gen = g
		}
		if g != got.gen || len(row) != len(schemaOf(g).Columns) || len(row) != len(v.Schema().Columns) {
			return false, fmt.Errorf("epoch %d: row %d of generation %d with %d columns beside generation %d",
				got.epoch, n, g, len(row), got.gen)
		}
		n++
		return true, nil
	})
	if err == nil && n != rowsPer {
		err = fmt.Errorf("epoch %d: %d rows of generation %d, want %d", got.epoch, n, got.gen, rowsPer)
	}
	return got, err
}
