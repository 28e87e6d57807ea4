package queryrepo

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/relstore"
)

// TestHistoryPageWalk pages a 10-entry history at several page sizes and
// checks each walk reproduces the full newest-first listing exactly.
func TestHistoryPageWalk(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	repo, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := repo.Record(Sample{K: i, Tree: "gold"}, fmt.Sprintf("entry %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	view := committed(t, repo)
	ctx := context.Background()
	full, err := view.History(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != n {
		t.Fatalf("full history has %d entries, want %d", len(full), n)
	}
	for _, pageSize := range []int{1, 3, 4, n, n + 5} {
		var walked []Entry
		before := int64(0)
		for {
			page, next, err := view.HistoryPage(ctx, before, pageSize)
			if err != nil {
				t.Fatalf("page size %d: %v", pageSize, err)
			}
			if len(page) > pageSize {
				t.Fatalf("page size %d: got %d entries", pageSize, len(page))
			}
			walked = append(walked, page...)
			if next == 0 {
				break
			}
			before = next
		}
		if len(walked) != n {
			t.Fatalf("page size %d: walked %d entries, want %d", pageSize, len(walked), n)
		}
		for i := range full {
			if walked[i].ID != full[i].ID || walked[i].Summary != full[i].Summary {
				t.Fatalf("page size %d: entry %d = %+v, want %+v", pageSize, i, walked[i], full[i])
			}
		}
	}
}

// TestHistoryPageSkipsGaps burns ids (a failed insert bumps the counter
// without landing a row) and checks the windowed pager still returns full
// pages across the gaps and terminates.
func TestHistoryPageSkipsGaps(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	repo, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	record := func(i int) int64 {
		t.Helper()
		e, err := repo.Record(Delete{Tree: "gold"}, fmt.Sprintf("entry %d", i))
		if err != nil {
			t.Fatal(err)
		}
		return e.ID
	}
	var kept []int64
	for i := 0; i < 4; i++ {
		kept = append(kept, record(i))
	}
	// Burn a stretch of ids: delete rows 2..4 straight from the table,
	// leaving the counter (and ids 1, plus fresh ones above) intact.
	tab, err := db.Table(tableName)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(2); id <= 4; id++ {
		if _, err := tab.Delete(relstore.Int(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i < 7; i++ {
		kept = append(kept, record(i))
	}
	want := []int64{kept[6], kept[5], kept[4], kept[0]} // 7, 6, 5, 1 newest-first
	var got []int64
	view := committed(t, repo)
	before := int64(0)
	for {
		page, next, err := view.HistoryPage(context.Background(), before, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page {
			got = append(got, e.ID)
		}
		if next == 0 {
			break
		}
		before = next
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("walk across gaps = %v, want %v", got, want)
	}
}
