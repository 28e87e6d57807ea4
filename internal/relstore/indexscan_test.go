package relstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// indexScanRows is the size of the permuted fixture: several primary and
// index leaves, and more than two full resolution batches.
const indexScanRows = 3000

// permutedLabel gives row id the label whose rank in index order is
// id*7919 mod n — a permutation, so primary-key order and by_label order
// disagree almost everywhere.
func permutedLabel(id int) string {
	return fmt.Sprintf("label-%04d", id*7919%indexScanRows)
}

// permutedTable is ctxTestTable with the labels permuted, committed so a
// snapshot sees it.
func permutedTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := OpenMemDB()
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable(Schema{
		Name:    "items",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "label", Type: TString}},
		Key:     "id",
		Indexes: []Index{{Name: "by_label", Columns: []string{"label"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Tuple, indexScanRows)
	for i := range batch {
		batch[i] = Tuple{Int(int64(i)), Str(permutedLabel(i))}
	}
	if err := tab.BulkInsert(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// countedCtx carries a fresh span tree; totals reads one engine counter
// over it, immune to other tests ticking the global counters.
func countedCtx() (context.Context, func(name string) int64) {
	root := obs.NewRoot("test")
	return obs.ContextWithSpan(context.Background(), root), func(name string) int64 {
		return root.Summary().Totals()[name]
	}
}

// TestIndexScanBatchedOrder checks that batched resolution still delivers
// rows in index order although every batch is resolved in primary-key
// order, on the live table and on a snapshot view alike.
func TestIndexScanBatchedOrder(t *testing.T) {
	db, tab := permutedTable(t)
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	type rangeScan func(ctx context.Context, index string, lo, hi Value, fn func(Row) (bool, error)) error
	collect := func(scan rangeScan) []Tuple {
		var rows []Tuple
		err := scan(context.Background(), "by_label", Str("label-0100"), Str("label-2900"), func(stored Row) (bool, error) {
			row := tup(t, stored)
			rows = append(rows, row)
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	live, snap := collect(tab.view.IndexRangeCtx), collect(view.IndexRangeCtx)
	if len(live) != 2800 || len(snap) != len(live) {
		t.Fatalf("range delivered %d live and %d snapshot rows, want 2800 each", len(live), len(snap))
	}
	for i, row := range live {
		if want := fmt.Sprintf("label-%04d", 100+i); row[1].Text() != want {
			t.Fatalf("row %d has label %s, want %s (index order)", i, row[1].Text(), want)
		}
		if got := permutedLabel(int(row[0].Int64())); got != row[1].Text() {
			t.Fatalf("row %d: id %d resolved to label %s, its own is %s", i, row[0].Int64(), row[1].Text(), got)
		}
		if snap[i][0].Int64() != row[0].Int64() || snap[i][1].Text() != row[1].Text() {
			t.Fatalf("row %d: snapshot view %v, live table %v", i, snap[i], row)
		}
	}
}

// TestIndexScanStopsWithinBatch stops a range after five rows: exactly five
// are delivered, and the index scan has visited only the entries of the
// batches (1, 2, 4) that produced them.
func TestIndexScanStopsWithinBatch(t *testing.T) {
	_, tab := permutedTable(t)
	ctx, totals := countedCtx()
	seen := 0
	err := tab.view.IndexRangeCtx(ctx, "by_label", Value{}, Value{}, func(Row) (bool, error) {
		seen++
		return seen < 5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("delivered %d rows, want 5", seen)
	}
	if got := totals("rows_scanned"); got != 7 {
		t.Fatalf("index scan visited %d entries, want 7 (batches of 1, 2 and 4)", got)
	}
	if got := totals("btree_descents"); got > 1+7 {
		t.Fatalf("%d descents, want at most 1 index + 7 primary", got)
	}
}

// TestIndexScanSingleMatchTwoDescents pins the cost of a point lookup
// through an index: one index descent and one primary descent.
func TestIndexScanSingleMatchTwoDescents(t *testing.T) {
	_, tab := permutedTable(t)
	ctx, totals := countedCtx()
	var got Tuple
	err := tab.view.IndexScanCtx(ctx, "by_label", []Value{Str("label-1234")}, func(stored Row) (bool, error) {
		row := tup(t, stored)
		got = row
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got[1].Text() != "label-1234" {
		t.Fatalf("lookup returned %v", got)
	}
	if d := totals("btree_descents"); d != 2 {
		t.Fatalf("single-match index lookup took %d descents, want 2", d)
	}
}

// TestIndexScanDanglingEntry removes a row from the primary tree behind the
// index's back, in the middle of a batch.
func TestIndexScanDanglingEntry(t *testing.T) {
	_, tab := permutedTable(t)
	victim := -1
	for id := 0; id < indexScanRows; id++ {
		if permutedLabel(id) == "label-0005" {
			victim = id
		}
	}
	if ok, err := tab.view.primary.Delete(EncodeKey(Int(int64(victim)))); err != nil || !ok {
		t.Fatalf("deleting the primary entry: %v, %v", ok, err)
	}
	seen := 0
	err := tab.view.IndexRangeCtx(context.Background(), "by_label", Value{}, Value{}, func(Row) (bool, error) {
		seen++
		return true, nil
	})
	if err == nil || !strings.Contains(err.Error(), "items.by_label points at missing row") {
		t.Fatalf("err = %v, want the missing-row report", err)
	}
	if seen != 5 {
		t.Fatalf("%d rows delivered before the dangling entry, want the 5 ahead of it", seen)
	}
}

// TestIndexScanCancelsMidScan cancels from the callback: the scan must stop
// with the context's error well short of the table.
func TestIndexScanCancelsMidScan(t *testing.T) {
	_, tab := permutedTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := tab.view.IndexRangeCtx(ctx, "by_label", Value{}, Value{}, func(Row) (bool, error) {
		seen++
		if seen == 10 {
			cancel()
		}
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen < 10 || seen >= indexScanRows {
		t.Fatalf("scan delivered %d rows, want at least the 10 before the cancel and fewer than all %d", seen, indexScanRows)
	}
}
