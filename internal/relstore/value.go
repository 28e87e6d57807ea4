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
)

// ColumnType enumerates the value types a column can hold.
type ColumnType int

// Column types supported by the relational layer.
const (
	TInt ColumnType = iota + 1
	TFloat
	TString
	TBytes
	TBool
)

func (t ColumnType) String() string {
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
	Type ColumnType
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

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{Type: TBool, i: 1}
	}
	return Value{Type: TBool}
}

// Int64 returns the integer payload; it panics on other types.
func (v Value) Int64() int64 {
	if v.Type != TInt {
		panic("relstore: Int64 on " + v.Type.String())
	}
	return v.i
}

// Float64 returns the float payload; it panics on other types.
func (v Value) Float64() float64 {
	if v.Type != TFloat {
		panic("relstore: Float64 on " + v.Type.String())
	}
	return v.f
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

// Truth returns the boolean payload; it panics on other types.
func (v Value) Truth() bool {
	if v.Type != TBool {
		panic("relstore: Truth on " + v.Type.String())
	}
	return v.i != 0
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

// Tuple is a row as values: an ordered tuple matching a table schema. It is
// what a writer hands in (Insert, Put, BulkInsert) and what Row.Tuple decodes
// for a reader that wants every column as a Value.
type Tuple []Value

// ErrCorruptRow is returned when a stored row cannot be decoded.
var ErrCorruptRow = errors.New("relstore: corrupt row encoding")

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
		if v.i != 0 {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case TInt:
		dst = append(dst, tagInt)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.i)^(1<<63))
		return append(dst, b[:]...)
	case TFloat:
		dst = append(dst, tagFloat)
		bits := math.Float64bits(v.f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
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

// EncodeKey encodes values as an order-preserving composite key.
func EncodeKey(vals ...Value) []byte {
	var dst []byte
	for _, v := range vals {
		dst = appendTupleValue(dst, v)
	}
	return dst
}

// decodeTupleValue decodes one value from buf, returning it and the rest.
func decodeTupleValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return Value{}, nil, ErrCorruptRow
	}
	tag, buf := buf[0], buf[1:]
	switch tag {
	case tagFalse:
		return Bool(false), buf, nil
	case tagTrue:
		return Bool(true), buf, nil
	case tagInt:
		if len(buf) < 8 {
			return Value{}, nil, ErrCorruptRow
		}
		u := binary.BigEndian.Uint64(buf) ^ (1 << 63)
		return Int(int64(u)), buf[8:], nil
	case tagFloat:
		if len(buf) < 8 {
			return Value{}, nil, ErrCorruptRow
		}
		bits := binary.BigEndian.Uint64(buf)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), buf[8:], nil
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
	return Value{}, nil, fmt.Errorf("%w: tuple tag %#x", ErrCorruptRow, tag)
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
	return nil, nil, fmt.Errorf("%w: unterminated string", ErrCorruptRow)
}

// DecodeKey decodes a composite key produced by EncodeKey.
func DecodeKey(buf []byte) ([]Value, error) {
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
	dst = append(dst, byte(v.Type))
	switch v.Type {
	case TInt:
		return binary.AppendVarint(dst, v.i)
	case TFloat:
		return binary.AppendUvarint(dst, math.Float64bits(v.f))
	case TString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	case TBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.b)))
		return append(dst, v.b...)
	case TBool:
		return append(dst, byte(v.i))
	}
	panic("relstore: encode row with invalid value")
}

// decodeRow builds the Tuple of an encoded row, validating all of it. Strings
// and byte slices are copied: the Values own their bytes, whatever becomes of
// the page the row was read from.
func decodeRow(buf []byte) (Tuple, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, ErrCorruptRow
	}
	buf = buf[sz:]
	dst := make(Tuple, 0, min(n, uint64(len(buf)))) // a column takes at least a byte
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, ErrCorruptRow
		}
		typ := ColumnType(buf[0])
		buf = buf[1:]
		switch typ {
		case TInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, ErrCorruptRow
			}
			dst = append(dst, Int(v))
			buf = buf[sz:]
		case TFloat:
			bits, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return nil, ErrCorruptRow
			}
			dst = append(dst, Float(math.Float64frombits(bits)))
			buf = buf[sz:]
		case TString:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf[sz:])) < l {
				return nil, ErrCorruptRow
			}
			dst = append(dst, Str(string(buf[sz:sz+int(l)])))
			buf = buf[sz+int(l):]
		case TBytes:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf[sz:])) < l {
				return nil, ErrCorruptRow
			}
			dst = append(dst, Blob(append([]byte(nil), buf[sz:sz+int(l)]...)))
			buf = buf[sz+int(l):]
		case TBool:
			if len(buf) < 1 {
				return nil, ErrCorruptRow
			}
			dst = append(dst, Bool(buf[0] != 0))
			buf = buf[1:]
		default:
			return nil, fmt.Errorf("%w: column type %d", ErrCorruptRow, typ)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(buf))
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
func (r Row) Cols() Cols {
	n, sz := binary.Uvarint(r.enc)
	if sz <= 0 {
		return Cols{err: ErrCorruptRow}
	}
	return Cols{buf: r.enc[sz:], left: n}
}

// Cols reads the columns of a Row in schema order, in place — the read-side
// twin of RowWriter: each call takes the next column, which must hold the
// type asked for, Skip steps over unwanted ones by their lengths, the columns
// after the last one read are not looked at and no Value is built. Errors
// stick: once a column is missing, malformed or of another type, every later
// call returns the zero value and Err reports ErrCorruptRow — read, then check
// Err once. The bytes come straight out of a page: nothing here trusts them
// (FuzzRowDecode).
type Cols struct {
	buf  []byte // the columns not yet read
	left uint64 // how many the row's header says those are
	err  error
}

// Err reports the first failure of the reads so far.
func (c *Cols) Err() error { return c.err }

// fail keeps the first failure and leaves no column for later reads to find.
func (c *Cols) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf, c.left = nil, 0
}

// open consumes the type byte of the next column, which must be want.
func (c *Cols) open(want ColumnType) bool {
	if c.left == 0 || len(c.buf) == 0 {
		c.fail(ErrCorruptRow)
		return false
	}
	if typ := ColumnType(c.buf[0]); typ != want {
		c.fail(fmt.Errorf("%w: column is %s, not %s", ErrCorruptRow, typ, want))
		return false
	}
	c.left--
	c.buf = c.buf[1:]
	return true
}

// Int reads the next column, an integer.
func (c *Cols) Int() int64 {
	if !c.open(TInt) {
		return 0
	}
	v, sz := binary.Varint(c.buf)
	if sz <= 0 {
		c.fail(ErrCorruptRow)
		return 0
	}
	c.buf = c.buf[sz:]
	return v
}

// Float reads the next column, a float.
func (c *Cols) Float() float64 {
	if !c.open(TFloat) {
		return 0
	}
	bits, sz := binary.Uvarint(c.buf)
	if sz <= 0 {
		c.fail(ErrCorruptRow)
		return 0
	}
	c.buf = c.buf[sz:]
	return math.Float64frombits(bits)
}

// Bool reads the next column, a boolean.
func (c *Cols) Bool() bool {
	if !c.open(TBool) || len(c.buf) == 0 {
		c.fail(ErrCorruptRow) // keeps open's error, if that is what failed
		return false
	}
	v := c.buf[0] != 0
	c.buf = c.buf[1:]
	return v
}

// Str reads the next column, a string, as the row's own bytes (the page's).
func (c *Cols) Str() []byte {
	if !c.open(TString) {
		return nil
	}
	l, sz := binary.Uvarint(c.buf)
	if sz <= 0 || uint64(len(c.buf[sz:])) < l {
		c.fail(ErrCorruptRow)
		return nil
	}
	s := c.buf[sz : sz+int(l) : sz+int(l)]
	c.buf = c.buf[sz+int(l):]
	return s
}

// Skip steps over the next n columns: one flat loop, most of a cell read's cost.
func (c *Cols) Skip(n int) {
	buf, left := c.buf, c.left
	for ; n > 0; n-- {
		if left == 0 || len(buf) == 0 {
			c.fail(ErrCorruptRow)
			return
		}
		typ := ColumnType(buf[0])
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
			c.fail(fmt.Errorf("%w: column type %d", ErrCorruptRow, typ))
			return
		}
		if sz <= 0 {
			c.fail(ErrCorruptRow)
			return
		}
		buf = buf[sz:]
	}
	c.buf, c.left = buf, left
}

// rowInts reads the integer columns at the ascending positions cols of an
// encoded row into out: one pass of a Cols cursor, skipping the others. It is
// what Reader.Ints runs on the one row it was asked for.
func rowInts(buf []byte, cols []int, out []int64) error {
	c := Row{buf}.Cols()
	at := 0
	for i, col := range cols {
		c.Skip(col - at)
		out[i] = c.Int()
		at = col + 1
	}
	return c.Err()
}
