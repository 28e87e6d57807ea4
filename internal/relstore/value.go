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

// Row is an ordered tuple of values matching a table schema.
type Row []Value

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
func encodeRow(row Row) []byte {
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

// decodeRow builds the Row of an encoded row.
func decodeRow(buf []byte) (Row, error) {
	return appendRow(nil, buf)
}

// appendRow decodes an encoded row onto dst (allocating when dst is nil).
// Strings and byte slices are copied: the Values own their bytes, whatever
// becomes of the page the row was read from.
func appendRow(dst Row, buf []byte) (Row, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, ErrCorruptRow
	}
	buf = buf[sz:]
	if dst == nil {
		dst = make(Row, 0, min(n, uint64(len(buf)))) // a column takes at least a byte
	}
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

// rowInts reads the integer columns at the ascending positions cols of an
// encoded row into out, in place: the columns before and between them are
// stepped over by their lengths and those after the last are not looked at,
// no Value is built. It is what Reader.Ints runs on the one row it was asked
// for, bytes straight out of a page: one flat pass, where a call per column
// through decodeRow's Values made the stored Project half as fast again. A
// row that ends early, is malformed on the way, or holds another type at one
// of the positions is ErrCorruptRow (FuzzRowDecode).
func rowInts(buf []byte, cols []int, out []int64) error {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return ErrCorruptRow
	}
	buf = buf[sz:]
	for col, next := 0, 0; next < len(cols); col++ {
		if uint64(col) >= n || len(buf) == 0 {
			return ErrCorruptRow
		}
		typ := ColumnType(buf[0])
		buf = buf[1:]
		wanted := col == cols[next]
		if wanted && typ != TInt {
			return fmt.Errorf("%w: column %d is %s, not an integer", ErrCorruptRow, col, typ)
		}
		switch typ {
		case TInt, TFloat: // one varint either way
			if wanted {
				out[next], sz = binary.Varint(buf)
				next++
			} else {
				_, sz = binary.Uvarint(buf)
			}
			if sz <= 0 {
				return ErrCorruptRow
			}
			buf = buf[sz:]
		case TString, TBytes:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf[sz:])) < l {
				return ErrCorruptRow
			}
			buf = buf[sz+int(l):]
		case TBool:
			if len(buf) < 1 {
				return ErrCorruptRow
			}
			buf = buf[1:]
		default:
			return fmt.Errorf("%w: column type %d", ErrCorruptRow, typ)
		}
	}
	return nil
}
