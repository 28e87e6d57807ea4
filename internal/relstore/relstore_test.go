package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func speciesSchema() Schema {
	return Schema{
		Name: "species",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TString},
			{Name: "depth", Type: TFloat},
			{Name: "seq", Type: TBytes},
			{Name: "extant", Type: TBool},
		},
		Key: "id",
		Indexes: []Index{
			{Name: "by_name", Columns: []string{"name"}, Unique: true},
			{Name: "by_depth", Columns: []string{"depth"}},
		},
	}
}

// committed commits db and returns the named table as a snapshot taken
// right after reads it; the snapshot closes with the test.
func committed(t testing.TB, db *DB, name string) *TableView {
	t.Helper()
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	t.Cleanup(sn.Close)
	v, err := sn.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func speciesRow(id int64, name string, depth float64) Tuple {
	return Tuple{Int(id), Str(name), Float(depth), Blob([]byte("ACGT")), boolValue(true)}
}

func TestKeyEncodingOrderInts(t *testing.T) {
	vals := []int64{math.MinInt64, -1000, -1, 0, 1, 42, 1000, math.MaxInt64}
	var prev []byte
	for _, v := range vals {
		k := encodeKey(Int(v))
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("int key order broken at %d", v)
		}
		prev = k
	}
}

func TestKeyEncodingOrderFloats(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1.5, -0.0001, 0, 0.0001, 1.5, 1e300, math.Inf(1)}
	var prev []byte
	for _, v := range vals {
		k := encodeKey(Float(v))
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("float key order broken at %g", v)
		}
		prev = k
	}
}

func TestKeyEncodingOrderStrings(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "aa", "ab", "b"}
	var prev []byte
	for i, v := range vals {
		k := encodeKey(Str(v))
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("string key order broken at %d (%q)", i, v)
		}
		prev = k
	}
}

func TestKeyEncodingRoundTrip(t *testing.T) {
	in := []Value{Int(-7), Float(3.25), Str("Bha\x00Lla"), Blob([]byte{0, 1, 2}), boolValue(true), boolValue(false)}
	out, err := decodeKey(encodeKey(in...))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d values, want %d", len(out), len(in))
	}
	for i := range in {
		if !in[i].Equal(out[i]) {
			t.Fatalf("value %d: got %v want %v", i, out[i], in[i])
		}
	}
}

// TestKeyEncodingOrderProperty verifies that the tuple encoding preserves
// (int, string) composite ordering for arbitrary inputs.
func TestKeyEncodingOrderProperty(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		ka := encodeKey(Int(a1), Str(a2))
		kb := encodeKey(Int(b1), Str(b2))
		want := 0
		switch {
		case a1 < b1, a1 == b1 && a2 < b2:
			want = -1
		case a1 > b1, a1 == b1 && a2 > b2:
			want = 1
		}
		return bytes.Compare(ka, kb) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	row := Tuple{Int(-42), Str("Syn"), Float(2.5), Blob([]byte{9, 8, 7}), boolValue(false)}
	got, err := decodeRow(encodeRow(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("decoded %d values, want %d", len(got), len(row))
	}
	for i := range row {
		if !row[i].Equal(got[i]) {
			t.Fatalf("column %d: got %v want %v", i, got[i], row[i])
		}
	}
}

func TestRowCodecRejectsCorrupt(t *testing.T) {
	enc := encodeRow(Tuple{Int(1), Str("x")})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeRow(enc[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
	if _, err := decodeRow(append(enc, 0xFF)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Schema)
	}{
		{"no name", func(s *Schema) { s.Name = "" }},
		{"no columns", func(s *Schema) { s.Columns = nil }},
		{"dup column", func(s *Schema) { s.Columns = append(s.Columns, Column{Name: "id", Type: TInt}) }},
		{"bad key", func(s *Schema) { s.Key = "nope" }},
		{"bad index column", func(s *Schema) { s.Indexes[0].Columns = []string{"nope"} }},
		{"empty index", func(s *Schema) { s.Indexes[0].Columns = nil }},
		{"dup index", func(s *Schema) { s.Indexes = append(s.Indexes, s.Indexes[0]) }},
		{"unnamed column", func(s *Schema) { s.Columns[0].Name = "" }},
		{"bad type", func(s *Schema) { s.Columns[0].Type = 99 }},
	}
	for _, tc := range cases {
		s := speciesSchema()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
	}
	s := speciesSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestTableCRUD(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(speciesSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tab.Insert(speciesRow(i, fmt.Sprintf("sp%03d", i), float64(i)/10)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := tab.Insert(speciesRow(5, "dup", 0)); !errors.Is(err, errDuplicateKey) {
		t.Fatalf("duplicate insert error = %v", err)
	}
	row, ok, err := tab.Get(Int(42))
	if err != nil || !ok {
		t.Fatalf("Get(42): %v %v", ok, err)
	}
	if name := tup(t, row)[1].Text(); name != "sp042" {
		t.Fatalf("Get(42) name = %q", name)
	}
	if n, _ := committed(t, db, "species").Len(); n != 100 {
		t.Fatalf("Len = %d", n)
	}
	// Update via Put changes the indexed name.
	if err := tab.Put(speciesRow(42, "renamed", 4.2)); err != nil {
		t.Fatal(err)
	}
	var hits []string
	err = committed(t, db, "species").IndexScanCtx(context.Background(), "by_name", []Value{Str("sp042")}, func(stored Row) (bool, error) {
		r := tup(t, stored)
		hits = append(hits, r[1].Text())
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("stale index entry: %v", hits)
	}
	err = committed(t, db, "species").IndexScanCtx(context.Background(), "by_name", []Value{Str("renamed")}, func(stored Row) (bool, error) {
		r := tup(t, stored)
		hits = append(hits, r[1].Text())
		return true, nil
	})
	if err != nil || len(hits) != 1 {
		t.Fatalf("index lookup after rename: %v %v", hits, err)
	}
	// Delete removes index entries too.
	if ok, err := tab.Delete(Int(42)); err != nil || !ok {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if _, ok, _ := tab.Get(Int(42)); ok {
		t.Fatal("row present after delete")
	}
	hits = nil
	committed(t, db, "species").IndexScanCtx(context.Background(), "by_name", []Value{Str("renamed")}, func(stored Row) (bool, error) {
		r := tup(t, stored)
		hits = append(hits, r[1].Text())
		return true, nil
	})
	if len(hits) != 0 {
		t.Fatalf("index entry survives delete: %v", hits)
	}
	if ok, _ := tab.Delete(Int(42)); ok {
		t.Fatal("second delete reported true")
	}
}

func TestTableRejectsBadRows(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	if err := tab.Insert(Tuple{Int(1)}); !errors.Is(err, errSchemaRow) {
		t.Fatalf("short row error = %v", err)
	}
	bad := speciesRow(1, "x", 0)
	bad[1] = Int(9) // wrong type for name
	if err := tab.Insert(bad); !errors.Is(err, errSchemaRow) {
		t.Fatalf("wrong type error = %v", err)
	}
	if _, _, err := tab.Get(Str("1")); !errors.Is(err, errSchemaRow) {
		t.Fatalf("wrong key type error = %v", err)
	}
}

func TestUniqueIndexEnforced(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	if err := tab.Insert(speciesRow(1, "same", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(speciesRow(2, "same", 0)); !errors.Is(err, errDuplicateKey) {
		t.Fatalf("unique violation error = %v", err)
	}
	// Re-putting the same row under the same pk is allowed.
	if err := tab.Put(speciesRow(1, "same", 9)); err != nil {
		t.Fatalf("self-update rejected: %v", err)
	}
}

func TestScanOrderAndRange(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	perm := rand.New(rand.NewSource(7)).Perm(50)
	for _, i := range perm {
		if err := tab.Insert(speciesRow(int64(i), fmt.Sprintf("n%02d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int64
	tab.ScanRange(Value{}, Value{}, func(stored Row) (bool, error) {
		r := tup(t, stored)
		ids = append(ids, r[0].i)
		return true, nil
	})
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("Scan not in primary key order")
	}
	if len(ids) != 50 {
		t.Fatalf("Scan visited %d rows", len(ids))
	}
	ids = nil
	committed(t, db, "species").ScanRangeCtx(context.Background(), Int(10), Int(20), func(stored Row) (bool, error) {
		r := tup(t, stored)
		ids = append(ids, r[0].i)
		return true, nil
	})
	if len(ids) != 10 || ids[0] != 10 || ids[9] != 19 {
		t.Fatalf("ScanRange [10,20) = %v", ids)
	}
	// Early stop.
	n := 0
	tab.ScanRange(Value{}, Value{}, func(Row) (bool, error) {
		n++
		return n < 5, nil
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestIndexRangeByFloat: the key-only scan of a float index hands out, in
// index order, the float and the id of exactly the rows a range holds — negative
// floats, a range across leaves, the unbounded one — read from the entries
// alone: the rows scanned are the entries and the one that ends the range,
// no primary row. An index on another type is errSchemaRow, and so is a
// bound of another type.
func TestIndexRangeByFloat(t *testing.T) {
	const rows = 3000
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	depth := func(id int64) float64 { return float64(id*7919%rows)*0.5 - 200 }
	for i := int64(0); i < rows; i++ {
		if err := tab.Insert(speciesRow(i, fmt.Sprintf("n%04d", i), depth(i))); err != nil {
			t.Fatal(err)
		}
	}
	view := committed(t, db, "species")
	for _, r := range []struct{ lo, hi Value }{{Float(-50), Float(400)}, {Float(5), Float(10)}, {Value{}, Value{}}, {Float(-1e9), Value{}}} {
		ctx, totals := countedCtx()
		var depths []float64
		err := view.IndexKeysCtx(ctx, "by_depth", r.lo, r.hi, func(d float64, id int64) (bool, error) {
			if want := depth(id); d != want {
				t.Fatalf("entry of row %d has depth %g, the row %g", id, d, want)
			}
			depths = append(depths, d)
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := int64(0); i < rows; i++ {
			if d := depth(i); (r.lo.Type == 0 || d >= r.lo.f) && (r.hi.Type == 0 || d < r.hi.f) {
				want++
			}
		}
		if len(depths) != want || !slices.IsSorted(depths) {
			t.Fatalf("[%v, %v): %d entries (sorted %v), want %d", r.lo, r.hi, len(depths), slices.IsSorted(depths), want)
		}
		scanned := int64(want)
		if r.hi.Type != 0 {
			scanned++ // the entry that ends the range
		}
		if got := totals("rows_scanned"); got != scanned {
			t.Fatalf("[%v, %v): %d rows scanned, want %d", r.lo, r.hi, got, scanned)
		}
	}
	none := func(float64, int64) (bool, error) { return true, nil }
	if err := view.IndexKeysCtx(context.Background(), "by_name", Value{}, Value{}, none); !errors.Is(err, errSchemaRow) {
		t.Fatalf("key-only scan of a string index: err = %v, want errSchemaRow", err)
	}
	if err := view.IndexKeysCtx(context.Background(), "by_depth", Str("x"), Value{}, none); !errors.Is(err, errSchemaRow) {
		t.Fatalf("a string bound on a float index: err = %v, want errSchemaRow", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(speciesSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if err := tab.Insert(speciesRow(i, fmt.Sprintf("sp%04d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sn := db.Snapshot()
	defer sn.Close()
	names, err := sn.Tables()
	if err != nil || len(names) != 1 || names[0] != "species" {
		t.Fatalf("Tables = %v, %v", names, err)
	}
	view := committed(t, db, "species")
	if n, _ := view.Len(); n != 300 {
		t.Fatalf("Len after reopen = %d", n)
	}
	row, ok, err := view.Get(Int(250))
	if err != nil || !ok || tup(t, row)[1].Text() != "sp0250" {
		t.Fatalf("Get(250) after reopen: %v %v %v", row, ok, err)
	}
	// Index must also have been persisted.
	var got []int64
	err = view.IndexScanCtx(context.Background(), "by_name", []Value{Str("sp0123")}, func(stored Row) (bool, error) {
		r := tup(t, stored)
		got = append(got, r[0].i)
		return true, nil
	})
	if err != nil || len(got) != 1 || got[0] != 123 {
		t.Fatalf("index scan after reopen: %v %v", got, err)
	}
}

func TestCreateDropTable(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	if _, err := db.CreateTable(speciesSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(speciesSchema()); !errors.Is(err, errTableExists) {
		t.Fatalf("duplicate create error = %v", err)
	}
	if err := db.DropTable("species"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("species"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Table after drop error = %v", err)
	}
	if err := db.DropTable("species"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("double drop error = %v", err)
	}
}

func TestLargeBlobRows(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	seq := make([]byte, 50_000) // typical gene sequence length
	for i := range seq {
		seq[i] = "ACGT"[i%4]
	}
	row := Tuple{Int(1), Str("big"), Float(0), Blob(seq), boolValue(true)}
	if err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tab.Get(Int(1))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !bytes.Equal(tup(t, got)[3].Bytes(), seq) {
		t.Fatal("large sequence corrupted")
	}
}

// TestTableMatchesMapModel checks table CRUD against a map model under a
// random workload (property-based).
func TestTableMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		db := OpenMemDB()
		defer db.Close()
		tab, err := db.CreateTable(Schema{
			Name:    "t",
			Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}},
			Key:     "k",
			Indexes: []Index{{Name: "by_v", Columns: []string{"v"}}},
		})
		if err != nil {
			return false
		}
		model := make(map[int64]string)
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 400; op++ {
			k := int64(r.Intn(100))
			switch r.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", r.Intn(50))
				if err := tab.Put(Tuple{Int(k), Str(v)}); err != nil {
					return false
				}
				model[k] = v
			case 2:
				ok, err := tab.Delete(Int(k))
				if err != nil {
					return false
				}
				if _, inModel := model[k]; ok != inModel {
					return false
				}
				delete(model, k)
			}
		}
		view := committed(t, db, "t")
		if n, _ := view.Len(); n != len(model) {
			return false
		}
		for k, want := range model {
			row, ok, err := view.Get(Int(k))
			if err != nil || !ok || tup(t, row)[1].Text() != want {
				return false
			}
		}
		// Index agrees with model contents.
		counts := make(map[string]int)
		for _, v := range model {
			counts[v]++
		}
		for v, want := range counts {
			n := 0
			view.IndexScanCtx(context.Background(), "by_v", []Value{Str(v)}, func(Row) (bool, error) { n++; return true, nil })
			if n != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// tup decodes a row a read handed out into its values.
func tup(t testing.TB, row Row) Tuple {
	t.Helper()
	vals, err := row.Tuple()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// Len returns the row count.
func (v *TableView) Len() (int, error) {
	n := 0
	err := v.ScanCtx(context.Background(), func(Row) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case TInt, TBool:
		return v.i == o.i
	case TFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case TString:
		return v.s == o.s
	case TBytes:
		return string(v.b) == string(o.b)
	}
	return false
}

// TestCreatedStampNamesTheIncarnation: a table's creation stamp is the epoch
// of the commit that first carries it; it survives the table's mutations and
// a reopen, and a drop and create under the same name moves it. A catalog
// entry written before the stamp existed has no "created" field and reads 0.
func TestCreatedStampNamesTheIncarnation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "created.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64) Tuple {
		return Tuple{Int(id), Str(fmt.Sprintf("sp%d", id)), Float(0), Blob(nil), boolValue(true)}
	}
	tab, err := db.CreateTable(speciesSchema())
	if err != nil {
		t.Fatal(err)
	}
	first := committed(t, db, "species").Created()
	if first == 0 || first != db.MVCC().Epoch {
		t.Fatalf("stamp %d, want the epoch %d of the commit that carried the table", first, db.MVCC().Epoch)
	}
	for id := int64(0); id < 50; id++ {
		if err := tab.Insert(row(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := committed(t, db, "species").Created(); got != first {
		t.Fatalf("stamp %d after inserts, want %d", got, first)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenDB(path); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := committed(t, db, "species").Created(); got != first {
		t.Fatalf("stamp %d after a reopen, want %d", got, first)
	}

	// Write the entry as a file from before the stamp holds it.
	if tab, err = db.Table("species"); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	tab.view.created = 0
	err = db.saveTable(tab)
	enc, _, gerr := db.catalog.Get(catalogKey("species"))
	db.mu.Unlock()
	if err != nil || gerr != nil {
		t.Fatal(err, gerr)
	}
	if bytes.Contains(enc, []byte(`"created"`)) {
		t.Fatalf("an unstamped entry carries the field: %s", enc)
	}
	if got := committed(t, db, "species").Created(); got != 0 {
		t.Fatalf("unstamped entry reads %d, want 0", got)
	}

	if err := db.DropTable("species"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(speciesSchema()); err != nil {
		t.Fatal(err)
	}
	if got := committed(t, db, "species").Created(); got <= first || got != db.MVCC().Epoch {
		t.Fatalf("stamp %d after a drop and create, want the new commit's epoch %d (> %d)", got, db.MVCC().Epoch, first)
	}
}
