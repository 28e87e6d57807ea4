// Package dewey implements the classic Dewey labeling scheme for trees
// (reference [11] of the paper): every node is addressed by the sequence of
// child ordinals on its root path, so ancestor tests are prefix tests and
// the least common ancestor is the longest common prefix. Crimson's
// hierarchical scheme (package core) bounds these labels by decomposing the
// tree; this package provides the plain, unbounded variant used directly on
// shallow trees and as the baseline the paper compares against on deep ones.
package dewey

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/phylo"
)

// Label is a Dewey label: the 1-based child ordinals along the path from
// the root. The root's label is empty. Labels print as "2.1.1" like the
// paper's examples.
type Label []uint32

// ErrBadLabel is returned by Parse for malformed label text.
var ErrBadLabel = errors.New("dewey: bad label")

// Parse converts "2.1.1" into a Label. The empty string is the root.
func Parse(s string) (Label, error) {
	if s == "" {
		return Label{}, nil
	}
	parts := strings.Split(s, ".")
	out := make(Label, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("%w: component %q", ErrBadLabel, p)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

// String renders the label in the paper's dotted form; the root is "".
func (l Label) String() string {
	if len(l) == 0 {
		return ""
	}
	parts := make([]string, len(l))
	for i, c := range l {
		parts[i] = strconv.FormatUint(uint64(c), 10)
	}
	return strings.Join(parts, ".")
}

// Len returns the number of components (the node's depth).
func (l Label) Len() int { return len(l) }

// Child returns the label of this node's i-th child (1-based).
func (l Label) Child(i uint32) Label {
	out := make(Label, len(l)+1)
	copy(out, l)
	out[len(l)] = i
	return out
}

// Parent returns the parent label, or nil for the root.
func (l Label) Parent() (Label, bool) {
	if len(l) == 0 {
		return nil, false
	}
	return append(Label(nil), l[:len(l)-1]...), true
}

// Compare orders labels in document (preorder) order: component-wise
// numeric comparison, with a prefix ordering before its extensions.
func Compare(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// LCP returns the longest common prefix of a and b — per the paper, the
// label of their least common ancestor.
func LCP(a, b Label) Label {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return append(Label(nil), a[:i]...)
}

// AncestorOrSelf reports whether a is a (non-strict) ancestor of b,
// i.e. a is a prefix of b.
func (l Label) AncestorOrSelf(b Label) bool {
	if len(l) > len(b) {
		return false
	}
	for i, c := range l {
		if b[i] != c {
			return false
		}
	}
	return true
}

// Key returns an order-preserving byte encoding (4 bytes big-endian per
// component) suitable as a B+tree key: bytewise comparison of keys matches
// Compare on labels.
func (l Label) Key() []byte {
	out := make([]byte, 4*len(l))
	for i, c := range l {
		binary.BigEndian.PutUint32(out[4*i:], c)
	}
	return out
}

// Size returns the encoded size of the label in bytes. This is the storage
// metric the paper argues grows without bound on deep trees.
func (l Label) Size() int { return 4 * len(l) }

// PlainIndex assigns every node of a tree its full (unbounded) Dewey label
// and answers LCA queries by longest-common-prefix plus a label lookup. On
// a tree of depth d it stores O(d) bytes per node — the overhead the
// hierarchical scheme in package core eliminates.
type PlainIndex struct {
	labels  []Label        // indexed by node ID (preorder)
	byLabel map[string]int // label key -> node ID
}

// BuildPlain labels the tree. The tree must have preorder IDs (Reindex).
func BuildPlain(t *phylo.Tree) *PlainIndex {
	nodes := t.Nodes()
	ix := &PlainIndex{
		labels:  make([]Label, len(nodes)),
		byLabel: make(map[string]int, len(nodes)),
	}
	for _, n := range nodes {
		var lbl Label
		if n.Parent != nil {
			parent := ix.labels[n.Parent.ID]
			ord := uint32(0)
			for i, c := range n.Parent.Children {
				if c == n {
					ord = uint32(i + 1)
					break
				}
			}
			lbl = parent.Child(ord)
		} else {
			lbl = Label{}
		}
		ix.labels[n.ID] = lbl
		ix.byLabel[string(lbl.Key())] = n.ID
	}
	return ix
}

// Label returns the label of node id.
func (ix *PlainIndex) Label(id int) Label { return ix.labels[id] }

// LCA returns the node ID of the least common ancestor of a and b, found
// as the longest common prefix of their labels (paper §2.1).
func (ix *PlainIndex) LCA(a, b int) int {
	return ix.byLabel[string(LCP(ix.labels[a], ix.labels[b]).Key())]
}

// IsAncestor reports whether a is a (non-strict) ancestor of b.
func (ix *PlainIndex) IsAncestor(a, b int) bool {
	return ix.labels[a].AncestorOrSelf(ix.labels[b])
}

// Compare orders nodes a and b in preorder via their labels.
func (ix *PlainIndex) Compare(a, b int) int {
	return Compare(ix.labels[a], ix.labels[b])
}

// TotalLabelBytes sums the encoded size of all labels — the index storage
// footprint reported in the paper-claim benchmarks.
func (ix *PlainIndex) TotalLabelBytes() int {
	total := 0
	for _, l := range ix.labels {
		total += l.Size()
	}
	return total
}

// MaxLabelLen returns the longest label length in components.
func (ix *PlainIndex) MaxLabelLen() int {
	max := 0
	for _, l := range ix.labels {
		if len(l) > max {
			max = len(l)
		}
	}
	return max
}
