package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestReaderFindsByPosition holds the reader's lookup by number — the held
// leaf picked by number, the two leaves last answered from tried first, the
// row tried at its distance from the leaf's first key — to the B+tree's own
// point read. Over int-keyed tables with gaps, negative keys, keys on both
// sides of 2³² and a query_history-shaped table with its counter row at -1,
// every key from two below the smallest to two past the largest is read
// through Row, Ints and IndexGetBatchCtx, at budgets of 0, 1 and 1 024
// leaves, in ascending, descending, shuffled and alternating (both ends
// inwards, as a lockstep climb reads) order, and each answer must be
// TableView.GetCtx's. After every read the two leaves the reader tries first
// must be the last two held leaves the reads went to, whatever leaves were
// inserted before them in the meantime; a leaf read once the budget is
// spent is held by no finger. The leaves held are each held once, in key
// order, with their first and last keys' numbers. A string-keyed table has
// no reads by number: every read is errSchemaRow.
func TestReaderFindsByPosition(t *testing.T) {
	type table struct {
		name    string
		schema  Schema
		lo, hi  int64               // keys read: [lo-2, hi+2]
		row     func(i int64) Tuple // the row stored under key i
		stored  func(i int64) bool  // whether it is stored
		ints    []int               // integer columns Ints reads
		label   int                 // the column the index covers: unique per row
		shuffle bool                // insert one at a time in a random order, not in bulk
	}
	labelled := func(name string, key Column) Schema {
		return Schema{
			Name:    name,
			Columns: []Column{key, {Name: "n", Type: TInt}, {Name: "label", Type: TString}, {Name: "m", Type: TInt}},
			Key:     key.Name,
			Indexes: []Index{{Name: "by_label", Columns: []string{"label"}}},
		}
	}
	intRow := func(i int64) Tuple {
		return Tuple{Int(i), Int(i * 3), Str(fmt.Sprintf("label %d", i)), Int(-i)}
	}
	const past32 = int64(1) << 32
	tables := []table{
		{
			name: "gaps", schema: labelled("gaps", Column{Name: "id", Type: TInt}),
			lo: 0, hi: 2999, row: intRow, ints: []int{0, 1, 3}, label: 2,
			stored: func(i int64) bool { return i%7 != 3 && (i < 1200 || i >= 1350) && i != 2000 },
		},
		{
			name: "negative", schema: labelled("negative", Column{Name: "id", Type: TInt}),
			lo: -1500, hi: 1499, row: intRow, ints: []int{0, 1, 3}, label: 2,
			stored: func(i int64) bool { return i%11 != 0 || i < 0 }, shuffle: true,
		},
		{
			name: "past32", schema: labelled("past32", Column{Name: "id", Type: TInt}),
			lo: past32 - 1000, hi: past32 + 1999, row: intRow, ints: []int{0, 1, 3}, label: 2,
			stored: func(i int64) bool { return i != past32 && i != past32-1 },
		},
		{
			name: "query_history",
			schema: Schema{
				Name: "query_history",
				Columns: []Column{
					{Name: "id", Type: TInt}, {Name: "time", Type: TInt}, {Name: "kind", Type: TString},
					{Name: "args", Type: TString}, {Name: "summary", Type: TString},
				},
				Key:     "id",
				Indexes: []Index{{Name: "by_kind", Columns: []string{"kind"}}},
			},
			lo: -1, hi: 800, ints: []int{0, 1}, label: 2,
			row: func(i int64) Tuple {
				if i == -1 { // the counter row: the next id
					return Tuple{Int(i), Int(801), Str("counter"), Str(""), Str("")}
				}
				return Tuple{Int(i), Int(1e18 + i), Str(fmt.Sprintf("lca %d", i)),
					Str(fmt.Sprintf(`{"a":"taxon%06d","b":"taxon%06d","tree":"gold"}`, i, 2*i)), Str(fmt.Sprintf("lca=%d", i/2))}
			},
			stored: func(i int64) bool { return i != 0 },
		},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			db := OpenMemDB()
			defer db.Close()
			tab, err := db.CreateTable(tc.schema)
			if err != nil {
				t.Fatal(err)
			}
			var rows []Tuple
			for i := tc.lo; i <= tc.hi; i++ {
				if tc.stored(i) {
					rows = append(rows, tc.row(i))
				}
			}
			if tc.shuffle {
				rand.New(rand.NewSource(5)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				for _, row := range rows {
					if err := tab.Insert(row); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := tab.BulkInsert(rows); err != nil {
				t.Fatal(err)
			}
			// Rows deleted after the load leave gaps inside full leaves.
			for i := tc.lo; i <= tc.hi; i += 97 {
				if tc.stored(i) {
					if _, err := tab.Delete(Int(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			sn := db.Snapshot()
			defer sn.Close()
			view, err := sn.Table(tc.schema.Name)
			if err != nil {
				t.Fatal(err)
			}
			index := tc.schema.Indexes[0].Name

			ascending := make([]int64, 0, tc.hi-tc.lo+5)
			for i := tc.lo - 2; i <= tc.hi+2; i++ {
				ascending = append(ascending, i)
			}
			descending := slices.Clone(ascending)
			slices.Reverse(descending)
			shuffled := slices.Clone(ascending)
			rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			alternating := make([]int64, 0, len(ascending))
			for i, j := 0, len(ascending)-1; i <= j; i, j = i+1, j-1 {
				alternating = append(alternating, ascending[i])
				if i < j {
					alternating = append(alternating, ascending[j])
				}
			}
			orders := map[string][]int64{"ascending": ascending, "descending": descending, "shuffled": shuffled, "alternating": alternating}

			ctx := context.Background()
			out := make([]int64, len(tc.ints))
			for _, left := range []int{0, 1, 1 << 10} {
				for order, keys := range orders {
					r := view.Reader(budget(left), tc.ints...)
					var near [2]uint64 // the first-key numbers of the leaves the fingers should hold; 0 for none
					for _, i := range keys {
						want, found, err := view.GetCtx(ctx, Int(i))
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("budget %d, %s, key %d", left, order, i)

						got, ok, err := r.Row(ctx, i)
						if err != nil || ok != found || !bytes.Equal(got.enc, want.enc) {
							t.Fatalf("%s: Row = %v, %v, %v; GetCtx = %v, %v", where, got.enc, ok, err, want.enc, found)
						}
						ok, err = r.Ints(ctx, i, out)
						if err != nil || ok != found {
							t.Fatalf("%s: Ints found %v, %v; GetCtx found %v", where, ok, err, found)
						}
						label := tc.row(i)[tc.label]
						rows, hit, err := r.IndexGetBatchCtx(ctx, index, []Value{label})
						if err != nil || hit[0] != found || !bytes.Equal(rows[0].enc, want.enc) {
							t.Fatalf("%s: IndexGetBatchCtx(%v) = %v, %v, %v; GetCtx = %v, %v", where, label, rows[0].enc, hit[0], err, want.enc, found)
						}
						if found {
							full := tup(t, want)
							for j, c := range tc.ints {
								if out[j] != full[c].i {
									t.Fatalf("%s: Ints column %d = %d, GetCtx's = %d", where, c, out[j], full[c].i)
								}
							}
						}
						// The leaf the key routes to is the one the reads went to:
						// when it is held, it is the latest finger.
						leaf, err := view.primary.LeafC(encodeKey(Int(i)), nil)
						if err != nil {
							t.Fatal(err)
						}
						if first := keyNum(leaf.Key(0)); slices.ContainsFunc(r.leaves, func(l heldLeaf) bool { return l.first == first }) && near[0] != first {
							near = [2]uint64{first, near[0]}
						}
						for f, j := range r.near {
							var held uint64
							if j >= 0 {
								held = r.leaves[j].first
							}
							if held != near[f] {
								t.Fatalf("%s: finger %d holds the leaf from %d, want the one from %d (%d leaves held)", where, f, held, near[f], len(r.leaves))
							}
						}
					}
					if held := len(r.leaves); left == 0 && held != 0 || held > left {
						t.Fatalf("budget %d, %s: %d leaves held", left, order, held)
					}
					for j, l := range r.leaves {
						if l.first != keyNum(l.Key(0)) || l.last != keyNum(l.Key(l.Len()-1)) {
							t.Fatalf("budget %d, %s: held leaf %d kept %d..%d as the numbers of its keys %v..%v", left, order, j, l.first, l.last, l.Key(0), l.Key(l.Len()-1))
						}
						if j > 0 && r.leaves[j-1].last >= l.first {
							t.Fatalf("budget %d, %s: held leaves out of key order, or one held twice, at %d", left, order, j)
						}
					}
				}
			}
		})
	}

	t.Run("strings", func(t *testing.T) {
		db := OpenMemDB()
		defer db.Close()
		tab, err := db.CreateTable(labelled("strings", Column{Name: "name", Type: TString}))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(Tuple{Str("k1"), Int(3), Str("label 1"), Int(-1)}); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		r := tab.view.Reader(budget(1<<10), 1, 3)
		if _, _, err := r.Row(ctx, 1); !errors.Is(err, errSchemaRow) {
			t.Fatalf("Row on a string key: err = %v, want errSchemaRow", err)
		}
		if _, err := r.Ints(ctx, 1, make([]int64, 2)); !errors.Is(err, errSchemaRow) {
			t.Fatalf("Ints on a string key: err = %v, want errSchemaRow", err)
		}
		if _, _, err := r.IndexGetBatchCtx(ctx, "by_label", []Value{Str("label 1")}); !errors.Is(err, errSchemaRow) {
			t.Fatalf("IndexGetBatchCtx on a string key: err = %v, want errSchemaRow", err)
		}
	})
}

// TestReaderKeyNumOrdersAsBytes: the number a held leaf's first key is kept
// as orders integer keys as their encoded bytes do, across the sign and past
// 2³², and a key of another length — only a corrupt page holds one — reads
// as 0 rather than panicking.
func TestReaderKeyNumOrdersAsBytes(t *testing.T) {
	vals := []int64{-1 << 63, -1 << 40, -(1 << 32) - 1, -1, 0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1}
	for i := 1; i < len(vals); i++ {
		a, b := encodeKey(Int(vals[i-1])), encodeKey(Int(vals[i]))
		if bytes.Compare(a, b) >= 0 || keyNum(a) >= keyNum(b) {
			t.Fatalf("%d < %d, but the keys compare %d and the numbers %d, %d", vals[i-1], vals[i], bytes.Compare(a, b), keyNum(a), keyNum(b))
		}
		if d := keyNum(b) - keyNum(a); d != uint64(vals[i]-vals[i-1]) {
			t.Fatalf("%d - %d: the numbers are %d apart", vals[i], vals[i-1], d)
		}
	}
	for _, key := range [][]byte{nil, {tagInt}, []byte(strings.Repeat("x", 10))} {
		if n := keyNum(key); n != 0 {
			t.Fatalf("keyNum(%q) = %d, want 0", key, n)
		}
	}
}
