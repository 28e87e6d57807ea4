package newick

import (
	"bufio"
	"io"
	"strconv"
)

// emitChunkSize is the emitter's internal buffer size: the peak memory an
// incremental serialization holds regardless of tree size. Streaming
// exports of arbitrarily large trees allocate this once, instead of
// materializing the whole Newick string.
const emitChunkSize = 8 << 10

// emitter writes a Newick tree incrementally, in the exact format
// String produces (lengths and interior names included), without ever
// holding more than emitChunkSize bytes of output. The caller drives it
// with the tree's structure in preorder:
//
//	OpenClade()                — entering an interior node: "("
//	Sibling()                  — between two children: ","
//	Leaf(name, len, withLen)   — a leaf: "name:len"
//	CloseClade(name, len, wl)  — leaving an interior node: ")name:len"
//	End()                      — ";" + flush; returns the first write error
//
// Write errors are sticky: once the underlying writer fails, subsequent
// calls are no-ops and End reports the error. An emitter is for use by one
// goroutine.
type emitter struct {
	w       *bufio.Writer
	err     error
	scratch []byte // float formatting buffer, reused across calls
}

// NewEmitter returns an emitter over w, buffering in emitChunkSize chunks.
func NewEmitter(w io.Writer) *emitter {
	return &emitter{w: bufio.NewWriterSize(w, emitChunkSize), scratch: make([]byte, 0, 32)}
}

func (e *emitter) writeString(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *emitter) writeByte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *emitter) writeLabel(name string, length float64, withLength bool) {
	e.writeString(quoteLabel(name))
	if withLength {
		e.writeByte(':')
		e.scratch = strconv.AppendFloat(e.scratch[:0], length, 'g', -1, 64)
		if e.err == nil {
			_, e.err = e.w.Write(e.scratch)
		}
	}
}

// OpenClade begins an interior node's child list.
func (e *emitter) OpenClade() { e.writeByte('(') }

// Sibling separates two children of the current clade.
func (e *emitter) Sibling() { e.writeByte(',') }

// Leaf emits a leaf node; withLength includes the ":length" suffix (false
// for a root that is its own leaf, matching String's no-length-on-root).
func (e *emitter) Leaf(name string, length float64, withLength bool) {
	e.writeLabel(name, length, withLength)
}

// CloseClade ends an interior node's child list and emits its own label.
func (e *emitter) CloseClade(name string, length float64, withLength bool) {
	e.writeByte(')')
	e.writeLabel(name, length, withLength)
}

// Err reports the sticky write error, if any. Producers driving the
// emitter from a scan should bail out once it is non-nil — every further
// emit would be a no-op against a dead sink.
func (e *emitter) Err() error { return e.err }

// End terminates the tree with ";", flushes, and reports the first error
// encountered anywhere in the emission.
func (e *emitter) End() error {
	e.writeByte(';')
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}
