package relstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func ctxTestTable(t *testing.T, rows int) *Table {
	t.Helper()
	db := OpenMemDB()
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable(Schema{
		Name: "items",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "label", Type: TString},
		},
		Key: "id",
		Indexes: []Index{
			{Name: "by_label", Columns: []string{"label"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Row, rows)
	for i := range batch {
		batch[i] = Row{Int(int64(i)), Str(fmt.Sprintf("label-%04d", i))}
	}
	if err := tab.BulkInsert(batch); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestScanCtxCancelledBeforeStart(t *testing.T) {
	tab := ctxTestTable(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen := 0
	err := tab.view.ScanCtx(ctx, func(Row) (bool, error) { seen++; return true, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 0 {
		t.Fatalf("cancelled-before-start scan visited %d rows", seen)
	}
}

func TestScanCtxCancelsMidScan(t *testing.T) {
	tab := ctxTestTable(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := tab.view.ScanCtx(ctx, func(Row) (bool, error) {
		seen++
		if seen == 10 {
			cancel()
		}
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cooperative check runs every storage.cancelCheckInterval rows, so
	// the scan must stop well short of the full table.
	if seen >= 5000 {
		t.Fatalf("scan ran to completion (%d rows) despite cancellation", seen)
	}
	if seen < 10 {
		t.Fatalf("scan stopped before the callback cancelled (%d rows)", seen)
	}
}

func TestIndexScanCtxCancels(t *testing.T) {
	tab := ctxTestTable(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := tab.view.IndexRangeCtx(ctx, "by_label", Value{}, Value{}, func(Row) (bool, error) {
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRowsIteratorYieldsCancellation(t *testing.T) {
	tab := ctxTestTable(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen, sawErr := 0, false
	for row, err := range tab.view.Rows(ctx) {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iterator error = %v, want context.Canceled", err)
			}
			if row != nil {
				t.Fatal("error pair carried a non-nil row")
			}
			sawErr = true
			break
		}
		seen++
		if seen == 5 {
			cancel()
		}
	}
	if !sawErr {
		t.Fatalf("iterator finished %d rows without surfacing cancellation", seen)
	}
}

func TestRowsIteratorBreakStopsScan(t *testing.T) {
	tab := ctxTestTable(t, 1000)
	seen := 0
	for _, err := range tab.view.Rows(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("broke at 3, iterator ran %d", seen)
	}
}
