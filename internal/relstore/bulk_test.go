package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestSortedRunMatchesByteOrder holds the run sort to bytes.Compare on keys
// built to defeat an eight-byte head: long shared prefixes, keys that are
// prefixes of one another, zero bytes where padding would go, and big groups
// that agree on several heads in a row.
func TestSortedRunMatchesByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stems := [][]byte{
		nil, {0}, {0, 0, 0, 0, 0, 0, 0, 0}, []byte("taxon000"),
		[]byte("Saccharomyces_cerevisiae_"), bytes.Repeat([]byte{0xff}, 17),
	}
	for round := 0; round < 50; round++ {
		var keys, vals arena
		seen := map[string]bool{}
		n := 1 + rng.Intn(400)
		for len(keys.end) < n {
			k := slices.Clone(stems[rng.Intn(len(stems))])
			for extra := rng.Intn(12); extra > 0; extra-- {
				k = append(k, byte(rng.Intn(3))) // few symbols: many ties, many zeros
			}
			if len(k) == 0 || seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			keys.buf = append(keys.buf, k...)
			keys.close()
			vals.buf = binary.BigEndian.AppendUint16(vals.buf, uint16(len(vals.end)))
			vals.close()
		}
		run, dup := sortedRun(&keys, &vals, nil)
		if dup >= 0 {
			t.Fatalf("round %d: distinct keys reported as duplicate at row %d", round, dup)
		}
		for i := 1; i < len(run); i++ {
			if bytes.Compare(run[i-1].Key, run[i].Key) >= 0 {
				t.Fatalf("round %d: run out of order at %d: %x then %x", round, i, run[i-1].Key, run[i].Key)
			}
		}
		for _, kv := range run {
			if row := int(binary.BigEndian.Uint16(kv.Value)); !bytes.Equal(keys.at(row), kv.Key) {
				t.Fatalf("round %d: key %x paired with row %d's value", round, kv.Key, row)
			}
		}
	}
}

// nodesLikeSchema has the shape of the tree repository's node relation:
// twelve columns, two secondary indexes, one of them on a string column
// that is empty for half the rows.
func nodesLikeSchema() Schema {
	return Schema{
		Name: "nodes_like",
		Columns: []Column{
			{Name: "id", Type: TInt}, {Name: "parent", Type: TInt}, {Name: "ord", Type: TInt},
			{Name: "name", Type: TString}, {Name: "length", Type: TFloat}, {Name: "depth", Type: TInt},
			{Name: "dist", Type: TFloat}, {Name: "sub", Type: TInt}, {Name: "lparent", Type: TInt},
			{Name: "ldepth", Type: TInt}, {Name: "leaf", Type: TBool}, {Name: "size", Type: TInt},
		},
		Key: "id",
		Indexes: []Index{
			{Name: "by_name", Columns: []string{"name"}},
			{Name: "by_dist", Columns: []string{"dist"}},
		},
	}
}

func nodesLikeRows(n int) []Tuple {
	rng := rand.New(rand.NewSource(5))
	rows := make([]Tuple, n)
	for i := range rows {
		name, leaf := "", i%2 == 1
		if leaf {
			name = fmt.Sprintf("taxon%06d", rng.Intn(1000000))
		}
		parent := int64(-1)
		if i > 0 {
			parent = int64(rng.Intn(i))
		}
		rows[i] = Tuple{
			Int(int64(i)), Int(parent), Int(int64(1 + i%2)), Str(name), Float(rng.Float64()),
			Int(int64(i % 40)), Float(rng.Float64() * 10), Int(int64(i / 16)), Int(int64(i%16 - 1)),
			Int(int64(i % 4)), Bool(leaf), Int(int64(1 + rng.Intn(50))),
		}
	}
	return rows
}

// fillTyped writes a row through the typed RowWriter methods, the way the
// tree repository stages without building Rows.
func fillTyped(rows []Tuple) func(i int, w *RowWriter) {
	return func(i int, w *RowWriter) {
		for _, v := range rows[i] {
			switch v.Type {
			case TInt:
				w.Int(v.Int64())
			case TFloat:
				w.Float(v.Float64())
			case TString:
				w.Str(v.Text())
			case TBytes:
				w.Blob(v.Bytes())
			case TBool:
				w.Bool(v.Truth())
			}
		}
	}
}

// TestStageBulkSameAtEveryWorkerCount stages one batch through the typed
// writer at several fan-outs and through BulkInsert's Tuple path: the runs
// must be identical, and the stored rows must decode to the input.
func TestStageBulkSameAtEveryWorkerCount(t *testing.T) {
	schema := nodesLikeSchema()
	rows := nodesLikeRows(3000)
	want, err := StageBulk(schema, len(rows), 1, func(i int, w *RowWriter) {
		for _, v := range rows[i] {
			w.put(v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range want.prim {
		row, err := decodeRow(kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, rows[row[0].Int64()]) {
			t.Fatalf("staged row %v decodes to %v", rows[row[0].Int64()], row)
		}
		if !bytes.Equal(kv.Value, encodeRow(row)) {
			t.Fatalf("staged row %d is not encodeRow's bytes", row[0].Int64())
		}
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := StageBulk(schema, len(rows), workers, fillTyped(rows))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.prim, want.prim) || !reflect.DeepEqual(got.index, want.index) {
			t.Fatalf("workers=%d: staged runs differ from the serial Tuple-fed stage", workers)
		}
	}
}

// TestStageBulkRejectsBeforeAnyTable lists what staging rejects. No
// database exists in this test: rejection needs none.
func TestStageBulkRejectsBeforeAnyTable(t *testing.T) {
	schema := bulkSchema("sp", true)
	good := bulkRows(20)
	with := func(i int, row Tuple) []Tuple {
		rows := slices.Clone(good)
		rows[i] = row
		return rows
	}
	for name, tc := range map[string]struct {
		rows []Tuple
		want error
	}{
		"wrong type":    {with(3, Tuple{Int(1), Int(2), Float(3)}), ErrSchemaRow},
		"short row":     {with(3, Tuple{Int(1), Str("x")}), ErrSchemaRow},
		"long row":      {with(3, Tuple{Int(1), Str("x"), Float(1), Float(2)}), ErrSchemaRow},
		"duplicate key": {with(3, good[9]), ErrDuplicateKey},
		"unique index":  {with(3, Tuple{Int(1000), good[9][1], Float(1)}), ErrDuplicateKey},
		"oversized key": {with(3, Tuple{Int(1000), Str(strings.Repeat("x", storage.MaxKeySize)), Float(1)}), storage.ErrKeyTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := StageBulk(schema, len(tc.rows), 2, func(i int, w *RowWriter) {
				for _, v := range tc.rows[i] {
					w.put(v)
				}
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("StageBulk error = %v, want %v", err, tc.want)
			}
		})
	}
	schema.Key = "missing"
	if _, err := StageBulk(schema, 0, 1, nil); err == nil {
		t.Fatal("StageBulk accepted a schema whose key is not a column")
	}
}

// TestApplyBulkRefusesAnotherTablesStage: a stage names the schema it was
// built for.
func TestApplyBulkRefusesAnotherTablesStage(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.BulkInsert(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	st, err := StageBulk(bulkSchema("other", false), 1, 1, func(i int, w *RowWriter) {
		w.Int(1)
		w.Str("a")
		w.Float(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Store().Pool().DirtyCount()
	if err := tab.ApplyBulk(st); err == nil || db.Store().Pool().DirtyCount() != before {
		t.Fatalf("ApplyBulk of another table's stage: err %v, dirty pages %d -> %d", err, before, db.Store().Pool().DirtyCount())
	}
}

// BenchmarkStageBulk stages the node relation of a 2k-leaf tree (3 999 rows,
// twelve columns, two indexes): the prepare half of a load's bulk insert.
func BenchmarkStageBulk(b *testing.B) {
	schema := nodesLikeSchema()
	rows := nodesLikeRows(3999)
	fill := fillTyped(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StageBulk(schema, len(rows), 1, fill); err != nil {
			b.Fatal(err)
		}
	}
}
