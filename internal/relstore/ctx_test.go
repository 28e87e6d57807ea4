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
	batch := make([]Tuple, rows)
	for i := range batch {
		batch[i] = Tuple{Int(int64(i)), Str(fmt.Sprintf("label-%04d", i))}
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
	err := tab.view.IndexScanCtx(ctx, "by_label", nil, func(Row) (bool, error) {
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	db := OpenMemDB()
	defer db.Close()
	species, err := db.CreateTable(speciesSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := species.Insert(speciesRow(1, "a", 0.5)); err != nil {
		t.Fatal(err)
	}
	err = species.view.IndexKeysCtx(ctx, "by_depth", Value{}, Value{}, func(float64, int64) (bool, error) {
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("key-only scan: err = %v, want context.Canceled", err)
	}
}

func TestScanCtxStopsWhenToldTo(t *testing.T) {
	tab := ctxTestTable(t, 1000)
	seen := 0
	err := tab.view.ScanCtx(context.Background(), func(Row) (bool, error) {
		seen++
		return seen < 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("stopped at 3, scan ran %d", seen)
	}
}
