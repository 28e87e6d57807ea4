package relstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func snapTestSchema(name string) Schema {
	return Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TString},
		},
		Key: "id",
		Indexes: []Index{
			{Name: "by_name", Columns: []string{"name"}},
		},
	}
}

// TestSnapshotIsolatesFromMutations pins snapshot semantics at the
// relational layer: a snapshot keeps serving the committed rows — via Get,
// Scan and IndexScanCtx — while the live table is overwritten, rows are
// deleted, and even after the whole table is dropped.
func TestSnapshotIsolatesFromMutations(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(snapTestSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tab.Insert(Tuple{Int(int64(i)), Str(fmt.Sprintf("sp%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("t")
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the live table and commit, then drop it entirely and commit.
	for i := 0; i < 200; i += 2 {
		if _, err := tab.Delete(Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("t"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("live table still visible after drop: %v", err)
	}

	// The snapshot still sees all 200 rows, consistently, by every access
	// path — and scan callbacks may re-enter the view (no lock to deadlock).
	n := 0
	err = view.ScanCtx(context.Background(), func(stored Row) (bool, error) {
		row := tup(t, stored)
		id := row[0].i
		got, ok, err := view.Get(Int(id))
		if err != nil || !ok {
			return false, fmt.Errorf("re-entrant Get(%d): ok=%v err=%v", id, ok, err)
		}
		if tup(t, got)[1].Text() != row[1].Text() {
			return false, fmt.Errorf("row %d mismatch", id)
		}
		n++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("snapshot scan saw %d rows, want 200", n)
	}
	found := 0
	err = view.IndexScanCtx(context.Background(), "by_name", []Value{Str("sp007")}, func(Row) (bool, error) {
		found++
		return true, nil
	})
	if err != nil || found != 1 {
		t.Fatalf("snapshot index scan found %d, err %v", found, err)
	}
	if err := view.Check(); err != nil {
		t.Fatalf("snapshot view integrity: %v", err)
	}
	if err := sn.Check(); err != nil {
		t.Fatalf("snapshot check: %v", err)
	}

	// A fresh snapshot sees the drop.
	sn2 := db.Snapshot()
	defer sn2.Close()
	if _, err := sn2.Table("t"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("new snapshot still sees dropped table: %v", err)
	}
	if sn2.Epoch() <= sn.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", sn.Epoch(), sn2.Epoch())
	}
}

// TestDropTableReclaimsPages verifies the load→delete cycle no longer
// leaks storage: dropped relations' pages are retired and, once no
// snapshot pins them, reused by the next load.
func TestDropTableReclaimsPages(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	rows := make([]Tuple, 5000)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Str(fmt.Sprintf("sp%06d", i))}
	}
	load := func(cycle int) {
		tab, err := db.CreateTable(snapTestSchema("churn"))
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := tab.BulkInsert(rows); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := db.Commit(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	drop := func(cycle int) {
		if err := db.DropTable("churn"); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := db.Commit(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	load(0)
	drop(0)
	load(1)
	baseline := db.Store().PageCount()
	drop(1)
	for cycle := 2; cycle < 6; cycle++ {
		load(cycle)
		drop(cycle)
	}
	load(99)
	after := db.Store().PageCount()
	if after > baseline+baseline/4 {
		t.Fatalf("page file grew from %d to %d pages across load/drop cycles: dropped pages not reclaimed", baseline, after)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}
