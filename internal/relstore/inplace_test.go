package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestRowIntsReadsWhatDecodeRowReads takes every subset of the integer
// columns of rows holding every column type through rowInts and checks the
// values against decodeRow's.
func TestRowIntsReadsWhatDecodeRowReads(t *testing.T) {
	rows := []Tuple{
		{Int(0), Int(-1), Str(""), Int(math.MaxInt64), Float(-2.5e-300), Int(math.MinInt64), Str("taxon\x00042"), boolValue(true), Blob([]byte{0, 1, 2}), Int(42), Float(math.Inf(1)), boolValue(false)},
		{Str(strings.Repeat("n", 300)), Int(12345), Float(1.25), boolValue(true)},
		{},
	}
	for _, row := range rows {
		enc := encodeRow(row)
		want, err := decodeRow(enc)
		if err != nil {
			t.Fatal(err)
		}
		var intCols []int
		for i, v := range want {
			if v.Type == TInt {
				intCols = append(intCols, i)
			}
		}
		for mask := 0; mask < 1<<len(intCols); mask++ {
			var cols []int
			var wantInts []int64
			for j, c := range intCols {
				if mask>>j&1 == 1 {
					cols = append(cols, c)
					wantInts = append(wantInts, want[c].i)
				}
			}
			got := make([]int64, len(cols))
			if err := rowInts(enc, cols, got); err != nil || !slices.Equal(got, wantInts) {
				t.Fatalf("rowInts(%v) = %v, %v, want %v", cols, got, err, wantInts)
			}
		}
	}
}

// TestRowIntsRejectsCorruptAndMistyped: a column of another type than an
// integer at a position asked for, a position past the last column, a row
// cut short before the last position asked for, an over-long varint and an
// unknown column type are all errCorruptRow, never a panic — and decodeRow
// agrees on every cut; Row.Ints without room for its columns is
// errSchemaRow.
func TestRowIntsRejectsCorruptAndMistyped(t *testing.T) {
	enc := encodeRow(Tuple{Int(7), Str("name"), Float(2), boolValue(true), Int(9)})
	out := make([]int64, 2)
	for _, cols := range [][]int{{1}, {0, 2}, {3}, {4, 5}} {
		if err := rowInts(enc, cols, out); !errors.Is(err, errCorruptRow) {
			t.Fatalf("rowInts(%v): err = %v, want errCorruptRow", cols, err)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if err := rowInts(enc[:cut], []int{0, 4}, out); !errors.Is(err, errCorruptRow) {
			t.Fatalf("row cut at %d of %d bytes: err = %v, want errCorruptRow", cut, len(enc), err)
		}
		if _, err := decodeRow(enc[:cut]); !errors.Is(err, errCorruptRow) {
			t.Fatalf("decodeRow of a row cut at %d bytes: err = %v, want errCorruptRow", cut, err)
		}
	}
	if err := rowInts(enc[:len(enc)-2], []int{0}, out); err != nil || out[0] != 7 {
		t.Fatalf("a cut after the last column asked for: %d, %v; those bytes are not looked at", out[0], err)
	}
	if err := rowInts([]byte{3, 99, 1, 2}, []int{1}, out); !errors.Is(err, errCorruptRow) {
		t.Fatalf("an unknown column type: err = %v, want errCorruptRow", err)
	}
	overlong := append([]byte{1, byte(TInt)}, bytes.Repeat([]byte{0x80}, 10)...)
	if err := rowInts(append(overlong, 0x01), []int{0}, out); !errors.Is(err, errCorruptRow) {
		t.Fatalf("an 11-byte varint: err = %v, want errCorruptRow", err)
	}
	if _, err := decodeRow([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(TInt), 2}); !errors.Is(err, errCorruptRow) {
		t.Fatalf("a hostile column count: err = %v, want errCorruptRow", err)
	}
	// Row.Ints is rowInts on the row, with room for the columns checked.
	if err := (Row{enc}).Ints([]int{0, 4}, out); err != nil || out[0] != 7 || out[1] != 9 {
		t.Fatalf("Row.Ints = %v, %v, want [7 9]", out, err)
	}
	if err := (Row{enc}).Ints([]int{0, 4}, out[:1]); !errors.Is(err, errSchemaRow) {
		t.Fatalf("Row.Ints with room for one of two columns: err = %v, want errSchemaRow", err)
	}
}

// budget is a leaf budget of n for a reader of its own.
func budget(n int) *int { return &n }

// leafOf names the storage leaf key routes to by the first key in it.
func leafOf(t *testing.T, v *TableView, index string, key []byte) string {
	t.Helper()
	tree := v.primary
	if index != "" {
		tree = v.indexes[index]
	}
	leaf, err := tree.LeafC(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Len() == 0 {
		return ""
	}
	return string(leaf.Key(0))
}

// TestIndexGetBatch checks the batched index lookup against one index scan
// per value — present, absent, repeated and out of order, on the live table
// and on a snapshot — and its cost against the leaves it has to touch.
func TestIndexGetBatch(t *testing.T) {
	db, tab := permutedTable(t)
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{2999, 0, 17, 1500, 17, 2998, 1, 777, 2222, 1501}
	for id := 40; id < 2900; id += 71 {
		ids = append(ids, id)
	}
	vals := make([]Value, 0, len(ids)+2)
	for _, id := range ids {
		vals = append(vals, Str(permutedLabel(id)))
	}
	vals = append(vals, Str("label-9999"), Str("a")) // past the last entry, before the first
	for name, v := range map[string]*TableView{"live": &tab.view, "snapshot": view} {
		ctx, totals := countedCtx()
		r := v.Reader(budget(1 << 10))
		rows, found, err := r.IndexGetBatchCtx(ctx, "by_label", vals)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range ids {
			if !found[i] {
				t.Fatalf("%s: %s not found", name, vals[i])
			}
			if row := tup(t, rows[i]); len(row) != 2 || row[0].i != int64(id) || row[1].Text() != permutedLabel(id) {
				t.Fatalf("%s: value %d resolved to %v, want (%d, %q)", name, i, row, id, permutedLabel(id))
			}
		}
		if found[len(ids)] || found[len(ids)+1] {
			t.Fatalf("%s: absent labels reported found", name)
		}
		// One descent per distinct leaf: the index leaves the values route
		// to and their entries lie in, and the primary leaves of the rows.
		leaves := map[string]bool{}
		for i, val := range vals {
			leaves["index "+leafOf(t, &tab.view, "by_label", encodeKey(val))] = true
			if i < len(ids) {
				leaves["index "+leafOf(t, &tab.view, "by_label", encodeKey(val, Int(int64(ids[i]))))] = true
				leaves["primary "+leafOf(t, &tab.view, "", encodeKey(Int(int64(ids[i]))))] = true
			}
		}
		if d := totals("btree_descents"); d == 0 || d > int64(len(leaves)) {
			t.Fatalf("%s: %d values took %d descents over %d distinct leaves", name, len(vals), d, len(leaves))
		} else {
			t.Logf("%s: %d values, %d descents, %d distinct leaves", name, len(vals), d, len(leaves))
		}
		if rows := totals("rows_scanned"); rows != int64(len(vals))-1 {
			t.Fatalf("%s: %d index entries counted as scanned for %d values with an entry at or after them", name, rows, len(vals)-1)
		}
		// The primary leaves stay held: the rows the sweep resolved are read
		// again by key without a descent.
		before := totals("btree_descents")
		for _, id := range ids {
			if row, ok, err := r.Row(ctx, int64(id)); err != nil || !ok || tup(t, row)[1].Text() != permutedLabel(id) {
				t.Fatalf("%s: row %d after the sweep: %v, %v, %v", name, id, row, ok, err)
			}
		}
		if d := totals("btree_descents") - before; d != 0 {
			t.Fatalf("%s: reading the swept rows by key took %d more descents, want 0", name, d)
		}
	}

	r := view.Reader(budget(1 << 10))
	if _, _, err := r.IndexGetBatchCtx(context.Background(), "by_nothing", vals); !errors.Is(err, errNoIndex) {
		t.Fatalf("unknown index: err = %v, want errNoIndex", err)
	}
	if _, _, err := r.IndexGetBatchCtx(context.Background(), "by_label", []Value{Int(1)}); !errors.Is(err, errSchemaRow) {
		t.Fatalf("mistyped value: err = %v, want errSchemaRow", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.IndexGetBatchCtx(ctx, "by_label", vals); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lookup: err = %v, want context.Canceled", err)
	}

	// An index entry whose row is gone is reported as what it is.
	if _, err := tab.view.primary.Delete(encodeKey(Int(777))); err != nil {
		t.Fatal(err)
	}
	live := tab.view.Reader(budget(1 << 10))
	_, _, err = live.IndexGetBatchCtx(context.Background(), "by_label", vals)
	if err == nil || !strings.Contains(err.Error(), "points at missing row") {
		t.Fatalf("dangling index entry: err = %v, want \"points at missing row\"", err)
	}
}

// TestReaderHoldsTheLeaf: a reader descends once to a key's leaf and then
// answers every row of that leaf in place — the integers it reads and the
// row it decodes agree, absent keys included — and never goes to a leaf
// twice, in whatever order the keys come; with the bound forced to one leaf
// it answers the same and keeps no more than that.
func TestReaderHoldsTheLeaf(t *testing.T) {
	db, tab := permutedTable(t)
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	ctx, totals := countedCtx()
	leaf, err := view.primary.LeafC(encodeKey(Int(1234)), nil)
	if err != nil || leaf.Len() < 2 {
		t.Fatalf("the leaf of key 1234: %d entries, %v", leaf.Len(), err)
	}
	first, err := decodeKey(leaf.Key(0))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := first[0].i, first[0].i+int64(leaf.Len())

	left := 1 << 10
	r := view.Reader(&left, 0)
	ints := make([]int64, 1)
	for id := hi - 1; id >= lo; id-- { // downwards: held leaves are found by range, not by recency
		if ok, err := r.Ints(ctx, id, ints); err != nil || !ok || ints[0] != id {
			t.Fatalf("Ints(%d) = %v, %v, %v", id, ints[0], ok, err)
		}
		if id%3 == 0 { // in full only now and then, as a walk does
			row, ok, err := r.Row(ctx, id)
			if full := tup(t, row); err != nil || !ok || len(full) != 2 || full[0].i != id || full[1].Text() != permutedLabel(int(id)) {
				t.Fatalf("row %d decoded to %v, %v, %v", id, full, ok, err)
			}
		}
	}
	if d := totals("btree_descents"); d != 1 || len(r.leaves) != 1 {
		t.Fatalf("%d rows of one leaf took %d descents and hold %d leaves, want 1 and 1", hi-lo, d, len(r.leaves))
	}

	// Every row, in a scattered order, twice: one descent per leaf the first
	// time, none the second.
	leaves := map[string]bool{}
	for pass := 0; pass < 2; pass++ {
		before := totals("btree_descents")
		for i := 0; i < indexScanRows; i++ {
			id := i * 7919 % indexScanRows
			leaves[leafOf(t, view, "", encodeKey(Int(int64(id))))] = true
			stored, ok, err := r.Row(ctx, int64(id))
			if row := tup(t, stored); err != nil || !ok || row[0].i != int64(id) || row[1].Text() != permutedLabel(id) {
				t.Fatalf("pass %d: row %d = %v, %v, %v", pass, id, row, ok, err)
			}
		}
		d := totals("btree_descents") - before
		if want := int64((1 - pass) * (len(leaves) - 1)); d != want {
			t.Fatalf("pass %d over %d leaves (one held already): %d descents, want %d", pass, len(leaves), d, want)
		}
	}
	for i := 1; i < len(r.leaves); i++ {
		if bytes.Compare(r.leaves[i-1].Key(0), r.leaves[i].Key(0)) >= 0 {
			t.Fatalf("held leaves out of key order at %d", i)
		}
	}

	// Absent keys: before the first, past the last, and the reader still
	// holds each leaf once.
	held := len(r.leaves)
	for _, id := range []int64{-1, indexScanRows, indexScanRows + 7, -1} {
		if ok, err := r.Ints(ctx, id, ints); err != nil || ok {
			t.Fatalf("Ints(%d) on an absent key = %v, %v", id, ok, err)
		}
		if _, ok, err := r.Row(ctx, id); err != nil || ok {
			t.Fatalf("Row(%d) on an absent key = %v, %v", id, ok, err)
		}
	}
	if len(r.leaves) != held {
		t.Fatalf("absent keys grew the held leaves from %d to %d", held, len(r.leaves))
	}

	if left != 1<<10-len(r.leaves) {
		t.Fatalf("%d leaves held left %d of a budget of %d", len(r.leaves), left, 1<<10)
	}

	// The bound: one leaf kept, every answer the same.
	one := view.Reader(budget(1))
	for i := 0; i < indexScanRows; i += 13 {
		id := i * 7919 % indexScanRows
		stored, ok, err := one.Row(ctx, int64(id))
		if row := tup(t, stored); err != nil || !ok || row[0].i != int64(id) || row[1].Text() != permutedLabel(id) {
			t.Fatalf("bounded reader: row %d = %v, %v, %v", id, row, ok, err)
		}
		if len(one.leaves) > 1 {
			t.Fatalf("a reader bounded to 1 leaf holds %d", len(one.leaves))
		}
	}

	for _, cols := range [][]int{{1}, {0, 0}, {2}, {-1}} { // a string column, a repeat, out of range
		bad := view.Reader(budget(1<<10), cols...)
		if _, err := bad.Ints(ctx, 5, make([]int64, 2)); !errors.Is(err, errSchemaRow) {
			t.Fatalf("columns %v: err = %v, want errSchemaRow", cols, err)
		}
		if _, _, err := bad.Row(ctx, 5); !errors.Is(err, errSchemaRow) {
			t.Fatalf("columns %v: Row: err = %v, want errSchemaRow", cols, err)
		}
	}
	if _, err := r.Ints(ctx, 5, nil); !errors.Is(err, errSchemaRow) {
		t.Fatalf("no room for the column: err = %v, want errSchemaRow", err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	fresh := tab.view.Reader(budget(1<<10), 0)
	if _, err := fresh.Ints(dead, 5, ints); !errors.Is(err, context.Canceled) {
		t.Fatalf("a descent under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestScanRowsSurviveRewriteAndEviction holds the Rows a primary scan and an
// index scan hand their callbacks while, inside those callbacks, a writer
// replaces every row (copy-on-write, across commits) and a pool of 16 frames
// is driven through enough other pages to evict every frame: the bytes a Row
// aliases are an immutable page image, so for the callback's duration — and
// for as long as the Row is kept — they read what they read when handed out,
// and the scan goes on over the snapshot's rows as if nothing had happened.
func TestScanRowsSurviveRewriteAndEviction(t *testing.T) {
	db, err := NewOnStore(storage.OpenMemWithPoolLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(Schema{
		Name:    "items",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "label", Type: TString}},
		Key:     "id",
		Indexes: []Index{{Name: "by_label", Columns: []string{"label"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < indexScanRows; i++ {
		if err := tab.Insert(Tuple{Int(int64(i)), Str(permutedLabel(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("items")
	if err != nil {
		t.Fatal(err)
	}

	round := 0
	churn := func() { // what the rest of the system does while a callback holds its Row
		round++
		for i := 0; i < indexScanRows; i++ {
			if err := tab.Put(Tuple{Int(int64(i)), Str(fmt.Sprintf("round-%d-%04d", round, i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		latest := db.Snapshot()
		defer latest.Close()
		now, err := latest.Table("items")
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		if err := now.ScanCtx(context.Background(), func(Row) (bool, error) { rows++; return true, nil }); err != nil || rows != indexScanRows {
			t.Fatalf("round %d: the rewritten table scans to %d rows, %v", round, rows, err)
		}
	}
	type kept struct {
		row   Row
		bytes []byte // what row.enc held when handed out
		id    int
	}
	var all []kept
	visit := func(what string, seen *int) func(Row) (bool, error) {
		return func(row Row) (bool, error) {
			c := row.Cols()
			id, label := int(c.Int()), c.Str()
			if err := c.Err(); err != nil || string(label) != permutedLabel(id) {
				t.Fatalf("%s: row %d reads %q, %v: not the snapshot's row", what, id, label, err)
			}
			if *seen++; *seen%1500 == 1 {
				churn()
				if string(label) != permutedLabel(id) {
					t.Fatalf("%s: the label of row %d changed under the callback holding it", what, id)
				}
				if vals := tup(t, row); vals[0].i != int64(id) || vals[1].Text() != permutedLabel(id) {
					t.Fatalf("%s: row %d decodes to %v after the rewrite", what, id, vals)
				}
			}
			if *seen%97 == 0 {
				all = append(all, kept{row, bytes.Clone(row.enc), id})
			}
			return true, nil
		}
	}
	var primary, index int
	if err := view.ScanCtx(context.Background(), visit("primary scan", &primary)); err != nil {
		t.Fatal(err)
	}
	if err := view.IndexScanCtx(context.Background(), "by_label", nil, visit("index scan", &index)); err != nil {
		t.Fatal(err)
	}
	if primary != indexScanRows || index != indexScanRows || round < 4 {
		t.Fatalf("scans saw %d and %d rows of %d over %d rewrites", primary, index, indexScanRows, round)
	}
	for _, k := range all {
		if !bytes.Equal(k.row.enc, k.bytes) {
			t.Fatalf("the bytes of row %d changed after its callback returned", k.id)
		}
	}
}
