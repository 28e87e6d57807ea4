package relstore

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRowIntsReadsWhatDecodeRowReads takes every subset of the integer
// columns of rows holding every column type through rowInts and checks the
// values against decodeRow's.
func TestRowIntsReadsWhatDecodeRowReads(t *testing.T) {
	rows := []Row{
		{Int(0), Int(-1), Str(""), Int(math.MaxInt64), Float(-2.5e-300), Int(math.MinInt64), Str("taxon\x00042"), Bool(true), Blob([]byte{0, 1, 2}), Int(42), Float(math.Inf(1)), Bool(false)},
		{Str(strings.Repeat("n", 300)), Int(12345), Float(1.25), Bool(true)},
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
					wantInts = append(wantInts, want[c].Int64())
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
// unknown column type are all ErrCorruptRow, never a panic — and decodeRow
// agrees on every cut.
func TestRowIntsRejectsCorruptAndMistyped(t *testing.T) {
	enc := encodeRow(Row{Int(7), Str("name"), Float(2), Bool(true), Int(9)})
	out := make([]int64, 2)
	for _, cols := range [][]int{{1}, {0, 2}, {3}, {4, 5}} {
		if err := rowInts(enc, cols, out); !errors.Is(err, ErrCorruptRow) {
			t.Fatalf("rowInts(%v): err = %v, want ErrCorruptRow", cols, err)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if err := rowInts(enc[:cut], []int{0, 4}, out); !errors.Is(err, ErrCorruptRow) {
			t.Fatalf("row cut at %d of %d bytes: err = %v, want ErrCorruptRow", cut, len(enc), err)
		}
		if _, err := decodeRow(enc[:cut]); !errors.Is(err, ErrCorruptRow) {
			t.Fatalf("decodeRow of a row cut at %d bytes: err = %v, want ErrCorruptRow", cut, err)
		}
	}
	if err := rowInts(enc[:len(enc)-2], []int{0}, out); err != nil || out[0] != 7 {
		t.Fatalf("a cut after the last column asked for: %d, %v; those bytes are not looked at", out[0], err)
	}
	if err := rowInts([]byte{3, 99, 1, 2}, []int{1}, out); !errors.Is(err, ErrCorruptRow) {
		t.Fatalf("an unknown column type: err = %v, want ErrCorruptRow", err)
	}
	overlong := append([]byte{1, byte(TInt)}, bytes.Repeat([]byte{0x80}, 10)...)
	if err := rowInts(append(overlong, 0x01), []int{0}, out); !errors.Is(err, ErrCorruptRow) {
		t.Fatalf("an 11-byte varint: err = %v, want ErrCorruptRow", err)
	}
	if _, err := decodeRow([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(TInt), 2}); !errors.Is(err, ErrCorruptRow) {
		t.Fatalf("a hostile column count: err = %v, want ErrCorruptRow", err)
	}
}

// leafOf names the storage leaf key routes to by the first key in it.
func leafOf(t *testing.T, v *TableView, index string, key []byte) string {
	t.Helper()
	tree := v.primary
	if index != "" {
		tree = v.indexes[index]
	}
	first := ""
	err := tree.GetLeaf(context.Background(), key, func(k, _ []byte) error {
		if first == "" {
			first = string(k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return first
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
	type lookup func(ctx context.Context, index string, vals []Value) ([]Row, []bool, error)
	for name, get := range map[string]lookup{"live": tab.view.IndexGetBatchCtx, "snapshot": view.IndexGetBatchCtx} {
		ctx, totals := countedCtx()
		rows, found, err := get(ctx, "by_label", vals)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range ids {
			if !found[i] {
				t.Fatalf("%s: %s not found", name, vals[i])
			}
			if row := rows[i]; len(row) != 2 || row[0].Int64() != int64(id) || row[1].Text() != permutedLabel(id) {
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
			leaves["index "+leafOf(t, &tab.view, "by_label", EncodeKey(val))] = true
			if i < len(ids) {
				leaves["index "+leafOf(t, &tab.view, "by_label", EncodeKey(val, Int(int64(ids[i]))))] = true
				leaves["primary "+leafOf(t, &tab.view, "", EncodeKey(Int(int64(ids[i]))))] = true
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
	}

	if _, _, err := view.IndexGetBatchCtx(context.Background(), "by_nothing", vals); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("unknown index: err = %v, want ErrNoIndex", err)
	}
	if _, _, err := view.IndexGetBatchCtx(context.Background(), "by_label", []Value{Int(1)}); !errors.Is(err, ErrSchemaRow) {
		t.Fatalf("mistyped value: err = %v, want ErrSchemaRow", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := view.IndexGetBatchCtx(ctx, "by_label", vals); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lookup: err = %v, want context.Canceled", err)
	}

	// An index entry whose row is gone is reported as what it is.
	if _, err := tab.view.primary.Delete(EncodeKey(Int(777))); err != nil {
		t.Fatal(err)
	}
	_, _, err = tab.view.IndexGetBatchCtx(context.Background(), "by_label", vals)
	if err == nil || !strings.Contains(err.Error(), "points at missing row") {
		t.Fatalf("dangling index entry: err = %v, want \"points at missing row\"", err)
	}
}

// TestGetLeafVisitsTheLeafInPlace: the rows GetLeafCtx visits are the rows
// of the leaf holding the key, in key order, the key's own among them; the
// integers it reads in place and the row it decodes on request agree.
func TestGetLeafVisitsTheLeafInPlace(t *testing.T) {
	db, tab := permutedTable(t)
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	ctx, totals := countedCtx()
	var ids []int64
	err = view.GetLeafCtx(ctx, Int(1234), []int{0}, func(ints []int64, row func() (Row, error)) error {
		id := ints[0]
		if id%3 == 0 { // in full only now and then, as a harvest does
			full, err := row()
			if err != nil {
				return err
			}
			if len(full) != 2 || full[0].Int64() != id || full[1].Text() != permutedLabel(int(id)) {
				t.Fatalf("row %d decoded to %v", id, full)
			}
		}
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 || totals("btree_descents") != 1 {
		t.Fatalf("harvested %d rows in %d descents, want a leaf's worth in one", len(ids), totals("btree_descents"))
	}
	seen := false
	for i, id := range ids {
		seen = seen || id == 1234
		if i > 0 && id != ids[i-1]+1 {
			t.Fatalf("rows out of key order: %d after %d", id, ids[i-1])
		}
	}
	if !seen {
		t.Fatal("the leaf holding key 1234 did not yield row 1234")
	}
	visit := func([]int64, func() (Row, error)) error { return nil }
	if err := tab.view.GetLeafCtx(ctx, Str("x"), nil, visit); !errors.Is(err, ErrSchemaRow) {
		t.Fatalf("mistyped key: err = %v, want ErrSchemaRow", err)
	}
	for _, cols := range [][]int{{1}, {0, 0}, {2}, {-1}} { // a string column, a repeat, out of range
		if err := tab.view.GetLeafCtx(ctx, Int(5), cols, visit); !errors.Is(err, ErrSchemaRow) {
			t.Fatalf("columns %v: err = %v, want ErrSchemaRow", cols, err)
		}
	}
	stop := errors.New("stop")
	if err := tab.view.GetLeafCtx(ctx, Int(5), nil, func([]int64, func() (Row, error)) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("callback error: got %v, want it passed through", err)
	}
}
