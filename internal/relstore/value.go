// Package relstore is the relational layer of Crimson's storage stack.
// The paper loads phylogenetic trees "into a relational database via the
// loading query provided by the repository manager"; this package provides
// those relations: typed schemas, rows, tables with a primary B+tree and
// secondary indexes, and a persistent catalog — all over package storage.
package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// columnType enumerates the value types a column can hold.
type columnType int

// Column types supported by the relational layer.
const (
	TInt columnType = iota + 1
	TFloat
	TString
	TBytes
	TBool
)

func (t columnType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	case TBool:
		return "bool"
	}
	return fmt.Sprintf("ColumnType(%d)", int(t))
}

// Value is a single typed cell. The zero Value is invalid; construct values
// with Int, Float, Str, Blob or Bool.
type Value struct {
	Type columnType
	i    int64
	f    float64
	s    string
	b    []byte
}

// Int returns an integer value.
func Int(v int64) Value { return Value{Type: TInt, i: v} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{Type: TFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Type: TString, s: v} }

// Blob returns a byte-slice value. The slice is referenced, not copied.
func Blob(v []byte) Value { return Value{Type: TBytes, b: v} }

// boolValue returns a boolean value.
func boolValue(v bool) Value {
	if v {
		return Value{Type: TBool, i: 1}
	}
	return Value{Type: TBool}
}

// Text returns the string payload; it panics on other types.
func (v Value) Text() string {
	if v.Type != TString {
		panic("relstore: Text on " + v.Type.String())
	}
	return v.s
}

// Bytes returns the byte payload; it panics on other types.
func (v Value) Bytes() []byte {
	if v.Type != TBytes {
		panic("relstore: Bytes on " + v.Type.String())
	}
	return v.b
}

func (v Value) String() string {
	switch v.Type {
	case TInt:
		return fmt.Sprintf("%d", v.i)
	case TFloat:
		return fmt.Sprintf("%g", v.f)
	case TString:
		return v.s
	case TBytes:
		return fmt.Sprintf("%x", v.b)
	case TBool:
		return fmt.Sprintf("%t", v.i != 0)
	}
	return "<invalid>"
}

// Tuple is a row as values: an ordered tuple matching a table schema. It is
// what a writer hands in (Insert, Put, BulkInsert) and what Row.Tuple decodes
// for a reader that wants every column as a Value.
type Tuple []Value

// errCorruptRow is returned when a stored row cannot be decoded.
var errCorruptRow = errors.New("relstore: corrupt row encoding")

// Tuple type tags. They are chosen so encoded tuples of mixed types still
// order deterministically (bool < int < float < bytes/string).
const (
	tagFalse  = 0x02
	tagTrue   = 0x03
	tagInt    = 0x10
	tagFloat  = 0x20
	tagString = 0x30
	tagBytes  = 0x31
)

// appendTupleValue appends an order-preserving encoding of v to dst.
// Integers are big-endian with the sign bit flipped; floats use the IEEE
// total-order trick; strings and byte slices are escaped (0x00 → 0x00 0xFF)
// and terminated by a single 0x00, so bytewise comparison of encodings
// matches value comparison.
func appendTupleValue(dst []byte, v Value) []byte {
	switch v.Type {
	case TBool:
		return append(dst, tupleBool(v.i != 0))
	case TInt:
		b := tupleInt(v.i)
		return append(dst, b[:]...)
	case TFloat:
		b := tupleFloat(v.f)
		return append(dst, b[:]...)
	case TString:
		dst = append(dst, tagString)
		return appendEscaped(dst, v.s)
	case TBytes:
		dst = append(dst, tagBytes)
		return appendEscaped(dst, v.b)
	}
	panic("relstore: encode invalid value")
}

// tupleBool, tupleInt and tupleFloat are the tuple encodings of the
// fixed-width types, for appendTupleValue and the bulk path's typed cell
// writers (RowWriter).
func tupleBool(v bool) byte {
	if v {
		return tagTrue
	}
	return tagFalse
}

func tupleInt(v int64) (b [9]byte) {
	b[0] = tagInt
	binary.BigEndian.PutUint64(b[1:], uint64(v)^(1<<63))
	return b
}

// keyFloat is the float whose tuple encoding carries u in its last 8 bytes:
// tupleFloat undone.
func keyFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

func tupleFloat(v float64) (b [9]byte) {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	b[0] = tagFloat
	binary.BigEndian.PutUint64(b[1:], bits)
	return b
}

func appendEscaped[T string | []byte](dst []byte, raw T) []byte {
	for i := 0; i < len(raw); i++ {
		if c := raw[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00)
}

// encodeKey encodes values as an order-preserving composite key.
func encodeKey(vals ...Value) []byte {
	var dst []byte
	for _, v := range vals {
		dst = appendTupleValue(dst, v)
	}
	return dst
}

// decodeTupleValue decodes one value from buf, returning it and the rest.
func decodeTupleValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return Value{}, nil, errCorruptRow
	}
	tag, buf := buf[0], buf[1:]
	switch tag {
	case tagFalse:
		return boolValue(false), buf, nil
	case tagTrue:
		return boolValue(true), buf, nil
	case tagInt:
		if len(buf) < 8 {
			return Value{}, nil, errCorruptRow
		}
		u := binary.BigEndian.Uint64(buf) ^ (1 << 63)
		return Int(int64(u)), buf[8:], nil
	case tagFloat:
		if len(buf) < 8 {
			return Value{}, nil, errCorruptRow
		}
		return Float(keyFloat(binary.BigEndian.Uint64(buf))), buf[8:], nil
	case tagString, tagBytes:
		raw, rest, err := unescape(buf)
		if err != nil {
			return Value{}, nil, err
		}
		if tag == tagString {
			return Str(string(raw)), rest, nil
		}
		return Blob(raw), rest, nil
	}
	return Value{}, nil, fmt.Errorf("%w: tuple tag %#x", errCorruptRow, tag)
}

func unescape(buf []byte) (raw, rest []byte, err error) {
	for i := 0; i < len(buf); i++ {
		if buf[i] != 0x00 {
			raw = append(raw, buf[i])
			continue
		}
		if i+1 < len(buf) && buf[i+1] == 0xFF {
			raw = append(raw, 0x00)
			i++
			continue
		}
		return raw, buf[i+1:], nil
	}
	return nil, nil, fmt.Errorf("%w: unterminated string", errCorruptRow)
}

// decodeKey decodes a composite key produced by encodeKey.
func decodeKey(buf []byte) ([]Value, error) {
	var out []Value
	for len(buf) > 0 {
		v, rest, err := decodeTupleValue(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		buf = rest
	}
	return out, nil
}

// encodeRow serializes a row for storage in the primary tree. The format is
// self-delimiting: uvarint column count, then per column a type byte and a
// type-specific payload.
func encodeRow(row Tuple) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(row)))
	for _, v := range row {
		dst = appendRowValue(dst, v)
	}
	return dst
}

// appendRowValue appends one column of a stored row: type byte, payload.
func appendRowValue(dst []byte, v Value) []byte {
	switch v.Type {
	case TInt:
		b, n := rowInt(v.i)
		return append(dst, b[:n]...)
	case TFloat:
		b, n := rowFloat(v.f)
		return append(dst, b[:n]...)
	case TString:
		b, n := rowVarHead(TString, len(v.s))
		return append(append(dst, b[:n]...), v.s...)
	case TBytes:
		b, n := rowVarHead(TBytes, len(v.b))
		return append(append(dst, b[:n]...), v.b...)
	case TBool:
		return append(dst, byte(TBool), byte(v.i))
	}
	panic("relstore: encode row with invalid value")
}

// rowInt, rowFloat and rowVarHead encode a row column's type byte and its
// varint into b[:n]: an integer's value, a float's bits, the length of the
// bytes a string or a byte slice appends after. appendRowValue and the
// typed cell writers (RowWriter) share them.
func rowInt(v int64) (b [1 + binary.MaxVarintLen64]byte, n int) {
	b[0] = byte(TInt)
	return b, 1 + binary.PutVarint(b[1:], v)
}

func rowFloat(v float64) (b [1 + binary.MaxVarintLen64]byte, n int) {
	b[0] = byte(TFloat)
	return b, 1 + binary.PutUvarint(b[1:], math.Float64bits(v))
}

func rowVarHead(typ columnType, size int) (b [1 + binary.MaxVarintLen64]byte, n int) {
	b[0] = byte(typ)
	return b, 1 + binary.PutUvarint(b[1:], uint64(size))
}

// decodeRow builds the Tuple of an encoded row, validating all of it. Strings
// and byte slices are copied: the Values own their bytes, whatever becomes of
// the page the row was read from.
func decodeRow(buf []byte) (Tuple, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, errCorruptRow
	}
	buf = buf[sz:]
	dst := make(Tuple, 0, min(n, uint64(len(buf)))) // a column takes at least a byte
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, errCorruptRow
		}
		typ := columnType(buf[0])
		buf = buf[1:]
		switch typ {
		case TInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, errCorruptRow
			}
			dst = append(dst, Int(v))
			buf = buf[sz:]
		case TFloat:
			bits, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return nil, errCorruptRow
			}
			dst = append(dst, Float(math.Float64frombits(bits)))
			buf = buf[sz:]
		case TString:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf[sz:])) < l {
				return nil, errCorruptRow
			}
			dst = append(dst, Str(string(buf[sz:sz+int(l)])))
			buf = buf[sz+int(l):]
		case TBytes:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf[sz:])) < l {
				return nil, errCorruptRow
			}
			dst = append(dst, Blob(append([]byte(nil), buf[sz:sz+int(l)]...)))
			buf = buf[sz+int(l):]
		case TBool:
			if len(buf) < 1 {
				return nil, errCorruptRow
			}
			dst = append(dst, boolValue(buf[0] != 0))
			buf = buf[1:]
		default:
			return nil, fmt.Errorf("%w: column type %d", errCorruptRow, typ)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptRow, len(buf))
	}
	return dst, nil
}

// Row is a stored row read where it lies: the encoded bytes, as a B+tree leaf
// (or an overflow chain) holds them. Every read hands one out and decodes
// nothing: Cols steps through the columns in place, Tuple builds the values.
// The bytes alias an immutable page image (see storage.BTree): they never
// change, and a Row that is kept keeps its 4 KiB image alive. So a Row is for
// the callback it was handed to, or for the request that read it; what is to
// live longer is copied out (Tuple, string(c.Str())).
type Row struct{ enc []byte }

// Tuple decodes the whole row into values that own their bytes.
func (r Row) Tuple() (Tuple, error) { return decodeRow(r.enc) }

// Cols returns a cursor on the row's first column.
func (r Row) Cols() colCursor {
	n, sz := binary.Uvarint(r.enc)
	if sz <= 0 {
		return colCursor{err: errCorruptRow}
	}
	return colCursor{buf: r.enc[sz:], left: n}
}

// colCursor reads the columns of a Row in schema order, in place — the read-side
// twin of RowWriter: each call takes the next column, which must hold the
// type asked for, Skip steps over unwanted ones by their lengths, the columns
// after the last one read are not looked at and no Value is built. Errors
// stick: once a column is missing, malformed or of another type, every later
// call returns the zero value and Err reports errCorruptRow — read, then check
// Err once. The bytes come straight out of a page: nothing here trusts them
// (FuzzRowDecode).
type colCursor struct {
	buf  []byte // the columns not yet read
	left uint64 // how many the row's header says those are
	err  error
}

// Err reports the first failure of the reads so far.
func (c *colCursor) Err() error { return c.err }

// fail keeps the first failure and leaves no column for later reads to find.
func (c *colCursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf, c.left = nil, 0
}

// open consumes the type byte of the next column, which must be want.
func (c *colCursor) open(want columnType) bool {
	if c.left == 0 || len(c.buf) == 0 {
		c.fail(errCorruptRow)
		return false
	}
	if typ := columnType(c.buf[0]); typ != want {
		c.fail(fmt.Errorf("%w: column is %s, not %s", errCorruptRow, typ, want))
		return false
	}
	c.left--
	c.buf = c.buf[1:]
	return true
}

// Int reads the next column, an integer.
func (c *colCursor) Int() int64 {
	if !c.open(TInt) {
		return 0
	}
	v, sz := binary.Varint(c.buf)
	if sz <= 0 {
		c.fail(errCorruptRow)
		return 0
	}
	c.buf = c.buf[sz:]
	return v
}

// Float reads the next column, a float.
func (c *colCursor) Float() float64 {
	if !c.open(TFloat) {
		return 0
	}
	bits, sz := binary.Uvarint(c.buf)
	if sz <= 0 {
		c.fail(errCorruptRow)
		return 0
	}
	c.buf = c.buf[sz:]
	return math.Float64frombits(bits)
}

// Bool reads the next column, a boolean.
func (c *colCursor) Bool() bool {
	if !c.open(TBool) || len(c.buf) == 0 {
		c.fail(errCorruptRow) // keeps open's error, if that is what failed
		return false
	}
	v := c.buf[0] != 0
	c.buf = c.buf[1:]
	return v
}

// Str reads the next column, a string, as the row's own bytes (the page's).
func (c *colCursor) Str() []byte {
	if !c.open(TString) {
		return nil
	}
	l, sz := binary.Uvarint(c.buf)
	if sz <= 0 || uint64(len(c.buf[sz:])) < l {
		c.fail(errCorruptRow)
		return nil
	}
	s := c.buf[sz : sz+int(l) : sz+int(l)]
	c.buf = c.buf[sz+int(l):]
	return s
}

// Skip steps over the next n columns: one flat loop, most of a cell read's cost.
func (c *colCursor) Skip(n int) {
	buf, left := c.buf, c.left
	for ; n > 0; n-- {
		if left == 0 || len(buf) == 0 {
			c.fail(errCorruptRow)
			return
		}
		typ := columnType(buf[0])
		buf = buf[1:]
		left--
		sz := 0 // of the payload: at least a byte, whatever the type
		switch typ {
		case TInt, TFloat: // one varint either way
			_, sz = binary.Uvarint(buf)
		case TString, TBytes:
			if l, lsz := binary.Uvarint(buf); lsz > 0 && uint64(len(buf[lsz:])) >= l {
				sz = lsz + int(l)
			}
		case TBool:
			sz = min(len(buf), 1)
		default:
			c.fail(fmt.Errorf("%w: column type %d", errCorruptRow, typ))
			return
		}
		if sz <= 0 {
			c.fail(errCorruptRow)
			return
		}
		buf = buf[sz:]
	}
	c.buf, c.left = buf, left
}

// rowInts reads the integer columns at the ascending positions cols of an
// encoded row into out in one pass: the columns before each are stepped over
// by their lengths — a number's varint by its continuation bits, without
// decoding it — and only the integers asked for are decoded. The columns
// after the last one asked for are not looked at. It is what Reader.Ints and
// Row.Ints run on the one row they were asked for; a success builds no error
// value and no Value. Like the cursor it trusts none of the bytes
// (FuzzRowDecode holds it to decodeRow).
func rowInts(buf []byte, cols []int, out []int64) error {
	n, sz := uvarint(buf)
	if sz <= 0 {
		return errCorruptRow
	}
	buf = buf[sz:]
	at := 0 // the column buf starts at
	for i, col := range cols {
		if col < at || uint64(col) >= n {
			return errCorruptRow
		}
		for ; at < col; at++ {
			if len(buf) < 2 { // a type byte and at least one payload byte
				return errCorruptRow
			}
			size := 0
			switch columnType(buf[0]) {
			case TInt, TFloat: // one varint either way
				size = varintLen(buf[1:])
			case TString, TBytes:
				if l, lsz := uvarint(buf[1:]); lsz > 0 && uint64(len(buf)-1-lsz) >= l {
					size = lsz + int(l)
				}
			case TBool:
				size = 1
			default:
				return fmt.Errorf("%w: column type %d", errCorruptRow, buf[0])
			}
			if size == 0 {
				return errCorruptRow
			}
			buf = buf[1+size:]
		}
		if len(buf) == 0 || columnType(buf[0]) != TInt {
			return errCorruptRow
		}
		u, vsz := uvarint(buf[1:])
		if vsz <= 0 {
			return errCorruptRow
		}
		out[i] = int64(u>>1) ^ -int64(u&1) // binary.Varint's zig-zag
		buf = buf[1+vsz:]
		at++
	}
	return nil
}

// uvarint is binary.Uvarint with the one- and two-byte cases, which are
// most of a row's numbers and lengths, taken before the loop.
func uvarint(buf []byte) (uint64, int) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1
	}
	if len(buf) > 1 && buf[1] < 0x80 {
		return uint64(buf[0]&0x7f) | uint64(buf[1])<<7, 2
	}
	return binary.Uvarint(buf)
}

// varintLen is the length of the varint buf starts with, from the
// continuation bits alone: 0 when none ends within buf or within
// binary.MaxVarintLen64 bytes. Eight bytes are tested at once.
func varintLen(buf []byte) int {
	if len(buf) >= 8 {
		if ends := ^binary.LittleEndian.Uint64(buf) & 0x8080808080808080; ends != 0 {
			return bits.TrailingZeros64(ends)/8 + 1
		}
		for i := 8; i < min(len(buf), binary.MaxVarintLen64); i++ {
			if buf[i] < 0x80 {
				return i + 1
			}
		}
		return 0
	}
	for i, c := range buf {
		if c < 0x80 {
			return i + 1
		}
	}
	return 0
}

// Ints reads the integer columns at the ascending positions cols of the row
// into out, in one pass over its bytes (rowInts): a column asked for that is
// not an integer, or that the row does not have, is errCorruptRow; out
// without room for them all is errSchemaRow.
func (r Row) Ints(cols []int, out []int64) error {
	if len(out) < len(cols) {
		return fmt.Errorf("%w: %d columns into %d", errSchemaRow, len(cols), len(out))
	}
	return rowInts(r.enc, cols, out)
}
