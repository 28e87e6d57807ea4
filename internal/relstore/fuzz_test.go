package relstore

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzRowDecode feeds arbitrary bytes to the readers of an encoded row —
// decodeRow, rowInts, and a Row.Cols cursor, which
// every scan callback and the request reader run on bytes straight out of a
// page. Torn and hostile rows must come back as errCorruptRow, never as a
// panic, never read past the row (the input's capacity is clipped to its
// length, so an overread is a panic) and never cost more Values than the input
// has bytes (a column takes at least two). What decodes survives an encode and
// decode unchanged, and wherever an in-place reader and decodeRow both succeed
// they agree: rowInts on every integer column, the cursor on every column.
func FuzzRowDecode(f *testing.F) {
	for _, row := range []Tuple{
		// a nodes row (leaf and interior), a layer row, a subs row
		{Int(1234), Int(1230), Int(2), Str("taxon001234"), Float(0.0625), Int(14), Float(3.75), Int(77), Int(1230), Int(3), boolValue(true), Int(1)},
		{Int(0), Int(-1), Int(1), Str(""), Float(0), Int(0), Float(0), Int(0), Int(-1), Int(0), boolValue(false), Int(39999)},
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
		buf = buf[:len(buf):len(buf)]
		row, err := decodeRow(buf)
		if err != nil && !errors.Is(err, errCorruptRow) {
			t.Fatalf("decodeRow error %q is not errCorruptRow", err)
		}
		if cap(row) > len(buf) {
			t.Fatalf("decodeRow reserved %d values for %d bytes", cap(row), len(buf))
		}
		var intCols []int
		if err == nil {
			again, err := decodeRow(encodeRow(row))
			if err != nil || len(again) != len(row) {
				t.Fatalf("re-encoded row decodes to %v, %v", again, err)
			}
			for i := range row {
				if !row[i].Equal(again[i]) {
					t.Fatalf("column %d: %v decoded, %v after a round trip", i, row[i], again[i])
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
			if out[j] != row[c].i {
				t.Fatalf("rowInts read %d at column %d, decodeRow %d", out[j], c, row[c].i)
			}
			if ierr := rowInts(buf, intCols[j:j+1], out[len(intCols):]); ierr != nil || out[len(intCols)] != row[c].i {
				t.Fatalf("rowInts(%d alone) = %d, %v, decodeRow read %d", c, out[len(intCols)], ierr, row[c].i)
			}
		}
		for c := 0; c < 4; c++ {
			if ierr := rowInts(buf, []int{c}, out); ierr != nil && !errors.Is(ierr, errCorruptRow) {
				t.Fatalf("rowInts error %q is not errCorruptRow", ierr)
			} else if ierr == nil && err == nil && (c >= len(row) || row[c].Type != TInt || row[c].i != out[0]) {
				t.Fatalf("rowInts read %d at column %d of %v", out[0], c, row)
			}
		}
		fuzzCols(t, buf, row, err)
	})
}

// fuzzCols is the cursor's part of FuzzRowDecode. row and err are what
// decodeRow made of buf.
func fuzzCols(t *testing.T, buf []byte, row Tuple, err error) {
	corrupt := func(c *colCursor, what string) {
		if err := c.Err(); !errors.Is(err, errCorruptRow) {
			t.Fatalf("%s: Err = %v, want errCorruptRow", what, err)
		}
		if c.Int() != 0 || c.Float() != 0 || c.Bool() || c.Str() != nil || !errors.Is(c.Err(), errCorruptRow) {
			t.Fatalf("%s: a failed cursor went on reading", what)
		}
	}
	if err == nil {
		if vals, terr := (Row{buf}).Tuple(); terr != nil || len(vals) != len(row) {
			t.Fatalf("Row.Tuple = %v, %v on a row that decodes to %v", vals, terr, row)
		}
		// Every column with its own accessor, then one read too many.
		c := Row{buf}.Cols()
		for i, v := range row {
			ok := true
			switch v.Type {
			case TInt:
				ok = c.Int() == v.i
			case TFloat:
				ok = math.Float64bits(c.Float()) == math.Float64bits(v.f)
			case TBool:
				ok = c.Bool() == (v.i != 0)
			case TString:
				ok = string(c.Str()) == v.Text()
			case TBytes:
				c.Skip(1)
			}
			if !ok || c.Err() != nil {
				t.Fatalf("cursor at column %d of %v: agrees=%v, Err=%v", i, row, ok, c.Err())
			}
		}
		c.Skip(1)
		corrupt(&c, "a read past the last column")
		// Skipping to each column and asking for another type than it holds.
		for i, v := range row {
			c := Row{buf}.Cols()
			c.Skip(i)
			if v.Type == TInt {
				c.Bool()
			} else {
				c.Int()
			}
			corrupt(&c, "a read of the wrong type")
		}
	}
	// Whether or not the row decodes: reads chosen by the bytes themselves
	// end in values or in errCorruptRow.
	c := Row{buf}.Cols()
	for i := 0; i <= len(buf) && c.Err() == nil; i++ {
		pick := byte(i)
		if i < len(buf) {
			pick = buf[i]
		}
		switch pick % 5 {
		case 0:
			c.Skip(int(pick%3) + 1)
		case 1:
			c.Int()
		case 2:
			c.Float()
		case 3:
			c.Bool()
		default:
			if s := c.Str(); len(s) > len(buf) {
				t.Fatalf("Str returned %d bytes of a %d-byte row", len(s), len(buf))
			}
		}
	}
	corrupt(&c, "reads until the row gives out")
}

// FuzzKeyDecode feeds arbitrary bytes to decodeKey, which reads the keys of
// the B+trees back into values (and, through unescape, every string in
// them): errCorruptRow or values, never a panic, never more values than
// bytes; and a key that decodes is the one encoding of its values, so
// encodeKey gives the same bytes back.
func FuzzKeyDecode(f *testing.F) {
	for _, vals := range [][]Value{
		{Int(42)},
		{Float(3.75), Int(1234)},
		{Str("taxon001234"), Int(1234)},
		{Str("tree/sp/seq:a"), Str("a\x00b"), Blob([]byte{0, 0xff, 0}), boolValue(true), boolValue(false)},
		{Float(math.Inf(-1)), Float(math.NaN()), Int(math.MinInt64)},
	} {
		key := encodeKey(vals...)
		f.Add(key)
		f.Add(key[:len(key)-1])
	}
	f.Add([]byte{tagString, 'a', 0x00, 0xff})
	f.Add([]byte{0x7f})
	f.Fuzz(func(t *testing.T, buf []byte) {
		buf = buf[:len(buf):len(buf)]
		vals, err := decodeKey(buf)
		if err != nil {
			if !errors.Is(err, errCorruptRow) {
				t.Fatalf("decodeKey error %q is not errCorruptRow", err)
			}
			return
		}
		if len(vals) > len(buf) {
			t.Fatalf("decodeKey made %d values of %d bytes", len(vals), len(buf))
		}
		if again := encodeKey(vals...); !bytes.Equal(again, buf) {
			t.Fatalf("key %x decodes to %v, which encodes to %x", buf, vals, again)
		}
	})
}
