package relstore

import (
	"errors"
	"math"
	"testing"
)

// FuzzRowDecode feeds arbitrary bytes to the three readers of an encoded row
// — decodeRow, appendRow onto a Row in use, and rowInts, which the request
// reader runs on bytes straight out of a page. Torn and hostile rows must come
// back as ErrCorruptRow, never as a panic, and never cost more Values than
// the input has bytes (a column takes at least two). What decodes survives an
// encode and decode unchanged, and wherever rowInts and decodeRow both
// succeed they agree on every integer column.
func FuzzRowDecode(f *testing.F) {
	for _, row := range []Row{
		// a nodes row (leaf and interior), a layer row, a subs row
		{Int(1234), Int(1230), Int(2), Str("taxon001234"), Float(0.0625), Int(14), Float(3.75), Int(77), Int(1230), Int(3), Bool(true), Int(1)},
		{Int(0), Int(-1), Int(1), Str(""), Float(0), Int(0), Float(0), Int(0), Int(-1), Int(0), Bool(false), Int(39999)},
		{Int(77), Int(70), Int(1), Int(4), Int(70), Int(2)},
		{Int(4), Int(1024), Int(1019)},
		{Int(math.MinInt64), Blob([]byte{0, 1, 2}), Float(math.Inf(-1)), Str("a\x00b")},
		{},
	} {
		enc := encodeRow(row)
		f.Add(enc)
		for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
			if cut > 0 && cut < len(enc) {
				f.Add(enc[:cut])
			}
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(TInt), 2})         // a hostile column count
	f.Add([]byte{1, byte(TString), 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}) // a hostile string length
	f.Fuzz(func(t *testing.T, buf []byte) {
		row, err := decodeRow(buf)
		if err != nil && !errors.Is(err, ErrCorruptRow) {
			t.Fatalf("decodeRow error %q is not ErrCorruptRow", err)
		}
		if cap(row) > len(buf) {
			t.Fatalf("decodeRow reserved %d values for %d bytes", cap(row), len(buf))
		}
		in := Row{Str("in use")}
		onto, aerr := appendRow(in, buf)
		if (aerr == nil) != (err == nil) {
			t.Fatalf("appendRow err = %v, decodeRow err = %v", aerr, err)
		}
		var intCols []int
		if err == nil {
			if len(onto) != 1+len(row) || onto[0].Text() != "in use" {
				t.Fatalf("appendRow onto a row in use gave %v", onto)
			}
			again, err := decodeRow(encodeRow(row))
			if err != nil || len(again) != len(row) {
				t.Fatalf("re-encoded row decodes to %v, %v", again, err)
			}
			for i := range row {
				if !row[i].Equal(again[i]) || !row[i].Equal(onto[i+1]) {
					t.Fatalf("column %d: %v decoded, %v onto a row in use, %v after a round trip", i, row[i], onto[i+1], again[i])
				}
				if row[i].Type == TInt {
					intCols = append(intCols, i)
				}
			}
		}
		// rowInts on the integer columns decodeRow found — all of them, each
		// alone — and, whether or not the row decodes, on the first few
		// positions: an error or values, never a panic.
		out := make([]int64, len(intCols)+1)
		if ierr := rowInts(buf, intCols, out); err == nil && ierr != nil {
			t.Fatalf("rowInts(%v) = %v on a row that decodes", intCols, ierr)
		}
		for j, c := range intCols {
			if out[j] != row[c].Int64() {
				t.Fatalf("rowInts read %d at column %d, decodeRow %d", out[j], c, row[c].Int64())
			}
			if ierr := rowInts(buf, intCols[j:j+1], out[len(intCols):]); ierr != nil || out[len(intCols)] != row[c].Int64() {
				t.Fatalf("rowInts(%d alone) = %d, %v, decodeRow read %d", c, out[len(intCols)], ierr, row[c].Int64())
			}
		}
		for c := 0; c < 4; c++ {
			if ierr := rowInts(buf, []int{c}, out); ierr != nil && !errors.Is(ierr, ErrCorruptRow) {
				t.Fatalf("rowInts error %q is not ErrCorruptRow", ierr)
			} else if ierr == nil && err == nil && (c >= len(row) || row[c].Type != TInt || row[c].Int64() != out[0]) {
				t.Fatalf("rowInts read %d at column %d of %v", out[0], c, row)
			}
		}
	})
}
