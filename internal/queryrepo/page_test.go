package queryrepo

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/relstore"
)

// TestHistoryPageWalk pages a 10-entry history at several page sizes and
// checks each walk reproduces the full newest-first listing exactly.
func TestHistoryPageWalk(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	repo, err := NewOnShards([]*relstore.DB{db})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := repo.Record(0, Sample{K: i, Tree: "gold"}, fmt.Sprintf("entry %d", i)); err != nil {
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
	repo, err := NewOnShards([]*relstore.DB{db})
	if err != nil {
		t.Fatal(err)
	}
	record := func(i int) int64 {
		t.Helper()
		e, err := repo.Record(0, Delete{Tree: "gold"}, fmt.Sprintf("entry %d", i))
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

// shardView commits every database and returns a history view over
// snapshots taken right after; they close with the test.
func shardView(t *testing.T, dbs []*relstore.DB) *View {
	t.Helper()
	sns := make([]*relstore.Snap, len(dbs))
	for i, db := range dbs {
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		sns[i] = db.Snapshot()
		t.Cleanup(sns[i].Close)
	}
	return ViewOnShards(sns)
}

// checkMerged reads a history of n entries, ids 1..n, through view: History
// newest first, every page size from 1 to n+3 walking to the same listing,
// ByKind oldest first and Get finding every id.
func checkMerged(t *testing.T, view *View, n int) {
	t.Helper()
	ctx := context.Background()
	full, err := view.History(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != n {
		t.Fatalf("History: %d entries, want %d", len(full), n)
	}
	for i, e := range full {
		if want := int64(n - i); e.ID != want || e.Summary != fmt.Sprintf("entry %d", want) {
			t.Fatalf("History[%d] = #%d %q, want #%d", i, e.ID, e.Summary, want)
		}
	}
	for pageSize := 1; pageSize <= n+3; pageSize++ {
		var walked []int64
		before := int64(0)
		for {
			page, next, err := view.HistoryPage(ctx, before, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) > pageSize {
				t.Fatalf("page size %d: a page of %d", pageSize, len(page))
			}
			for _, e := range page {
				walked = append(walked, e.ID)
			}
			if next == 0 {
				break
			}
			before = next
		}
		if len(walked) != n {
			t.Fatalf("page size %d: walked %v", pageSize, walked)
		}
		for i, id := range walked {
			if id != full[i].ID {
				t.Fatalf("page size %d: walked %v", pageSize, walked)
			}
		}
	}
	lcas, err := view.ByKind(ctx, "lca")
	if err != nil {
		t.Fatal(err)
	}
	if len(lcas) != (n+2)/3 {
		t.Fatalf("ByKind(lca): %d entries, want %d", len(lcas), (n+2)/3)
	}
	for i, e := range lcas {
		if want := int64(3*i + 1); e.ID != want || e.Kind != "lca" {
			t.Fatalf("ByKind(lca)[%d] = #%d %s, want #%d", i, e.ID, e.Kind, want)
		}
	}
	for id := int64(1); id <= int64(n); id++ {
		if e, err := view.Get(id); err != nil || e.ID != id {
			t.Fatalf("Get(%d) = #%d, %v", id, e.ID, err)
		}
	}
	if _, err := view.Get(int64(n + 1)); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("Get(%d) past the last id: %v", n+1, err)
	}
}

// TestHistoryAcrossShards records entries interleaved over four shards and
// reads them back merged by id. Ids are unique and dense across shards, and
// a new handle over the same databases continues them. A repository whose
// only history table is on shard 0, as every sharded repository's was
// before writes recorded on their own shard, reads the same.
func TestHistoryAcrossShards(t *testing.T) {
	const n = 23
	record := func(r *Repo, si, i int) Entry {
		t.Helper()
		var q Query = Sample{K: i, Tree: "gold"}
		if i%3 == 0 {
			q = LCA{A: fmt.Sprint(i), Tree: "gold"}
		}
		e, err := r.Record(si, q, fmt.Sprintf("entry %d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != int64(i+1) {
			t.Fatalf("record %d on shard %d got id %d", i, si, e.ID)
		}
		return e
	}
	newDBs := func() []*relstore.DB {
		dbs := make([]*relstore.DB, 4)
		for i := range dbs {
			dbs[i] = relstore.OpenMemDB()
			t.Cleanup(func() { dbs[i].Close() })
		}
		return dbs
	}

	dbs := newDBs()
	r, err := NewOnShards(dbs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		record(r, i*3%4, i) // shards 0, 3, 2, 1, 0, ...
	}
	checkMerged(t, shardView(t, dbs), n)
	// The last id went to shard (n-1)*3%4 = 2: a new handle recording on
	// another shard continues from it.
	again, err := NewOnShards(dbs)
	if err != nil {
		t.Fatal(err)
	}
	record(again, 1, n)
	checkMerged(t, shardView(t, dbs), n+1)

	old := newDBs()
	r0, err := NewOnShards(old[:1])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		record(r0, 0, i)
	}
	checkMerged(t, shardView(t, old), n)
	for _, db := range old[1:] {
		if _, err := db.Table(tableName); !errors.Is(err, relstore.ErrNoTable) {
			t.Fatalf("a shard other than 0 has a history table: %v", err)
		}
	}
	reopened, err := NewOnShards(old)
	if err != nil {
		t.Fatal(err)
	}
	record(reopened, 3, n)
	checkMerged(t, shardView(t, old), n+1)
}
