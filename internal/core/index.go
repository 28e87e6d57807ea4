// Package core implements Crimson's primary contribution: the hierarchical
// Dewey labeling scheme of §2.1 of the paper. A phylogenetic tree is
// decomposed into subtrees of bounded depth f ("layer 0"); each higher
// layer has one node per subtree of the layer below and is decomposed the
// same way, recursively, until a layer consists of a single subtree. Every
// node carries a Dewey label local to its subtree, so label size is bounded
// by f regardless of tree depth. A "source node" links each split-off
// subtree to the node it was split from (the dotted edge from node 6 to
// node 3 in Figure 4), and least-common-ancestor queries recurse up the
// layer stack exactly as in the paper's Syn/Lla walkthrough: at most 2f
// parent steps and two source-node lookups per layer, so the cost depends
// on f and the number of layers, never on the tree's depth.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dewey"
	"repro/internal/phylo"
)

// DefaultFanout is the default depth bound f. Labels never exceed f
// components.
const DefaultFanout = 16

// ErrBadFanout is returned by Build for a non-positive depth bound.
var ErrBadFanout = errors.New("core: depth bound f must be >= 1")

// Layer holds one level of the hierarchical decomposition. Layer 0's nodes
// are the original tree's nodes (identified by preorder ID); layer k+1 has
// exactly one node per subtree of layer k, with matching indexes (node i of
// layer k+1 represents subtree i of layer k).
type Layer struct {
	// Per node:
	Parent      []int32  // parent node in this layer's tree; -1 for the root
	Ord         []uint32 // 1-based child ordinal within Parent; 0 for the root
	Sub         []int32  // id of the bounded-depth subtree containing the node
	LocalParent []int32  // Parent if in the same subtree, else -1 (subtree root)
	LocalDepth  []uint16 // depth within the subtree (0 at subtree root, <= f)

	// Per subtree:
	SubRoot   []int32 // node at the subtree's root
	SubSource []int32 // the subtree root's parent node in this layer; -1 for the subtree holding the layer root
}

// NumNodes returns the number of nodes in the layer.
func (l *Layer) NumNodes() int { return len(l.Parent) }

// NumSubtrees returns the number of bounded-depth subtrees in the layer.
func (l *Layer) NumSubtrees() int { return len(l.SubRoot) }

// Index is the in-memory hierarchical label index over one tree.
type Index struct {
	F      int
	Tree   *phylo.Tree
	Layers []*Layer
}

// Build decomposes the tree with depth bound f and assigns hierarchical
// labels. The tree must have preorder IDs (call Reindex first); node i of
// layer 0 is the tree node with ID i.
//
// The decomposition rule follows Figure 4: walking in preorder, an interior
// node whose local depth would reach f starts a new subtree (local depth
// 0); leaves never split, so every local depth is at most f. With f=2 the
// paper's Figure 1 tree splits into {root,Syn,x,Bha,Bsu} and {y,Lla,Spy},
// with x the source node of the second subtree.
func Build(t *phylo.Tree, f int) (*Index, error) {
	if f < 1 {
		return nil, ErrBadFanout
	}
	nodes := t.Nodes()
	if len(nodes) == 0 {
		return nil, errors.New("core: empty tree")
	}
	n := len(nodes)
	parent := make([]int32, n)
	ord := make([]uint32, n)
	internal := make([]bool, n)
	for _, nd := range nodes {
		if nd.ID < 0 || nd.ID >= n {
			return nil, fmt.Errorf("core: node %q has ID %d outside [0,%d); call Reindex", nd.Name, nd.ID, n)
		}
		internal[nd.ID] = !nd.IsLeaf()
		if nd.Parent == nil {
			parent[nd.ID] = -1
			ord[nd.ID] = 0
		} else {
			parent[nd.ID] = int32(nd.Parent.ID)
			for i, c := range nd.Parent.Children {
				if c == nd {
					ord[nd.ID] = uint32(i + 1)
					break
				}
			}
		}
	}

	ix := &Index{F: f, Tree: t}
	for {
		layer := buildLayer(parent, ord, internal, f)
		ix.Layers = append(ix.Layers, layer)
		if layer.NumSubtrees() <= 1 {
			return ix, nil
		}
		parent, ord, internal = nextLayerTree(layer)
	}
}

// buildLayer decomposes one layer's tree (given as preorder-id parent/ord
// arrays) into bounded-depth subtrees.
func buildLayer(parent []int32, ord []uint32, internal []bool, f int) *Layer {
	n := len(parent)
	l := &Layer{
		Parent:      parent,
		Ord:         ord,
		Sub:         make([]int32, n),
		LocalParent: make([]int32, n),
		LocalDepth:  make([]uint16, n),
	}
	for i := 0; i < n; i++ {
		p := parent[i]
		if p < 0 {
			l.Sub[i] = int32(len(l.SubRoot))
			l.SubRoot = append(l.SubRoot, int32(i))
			l.SubSource = append(l.SubSource, -1)
			l.LocalParent[i] = -1
			l.LocalDepth[i] = 0
			continue
		}
		d := int(l.LocalDepth[p]) + 1
		if d >= f && internal[i] {
			// Interior node reaching the depth bound: start a new subtree.
			l.Sub[i] = int32(len(l.SubRoot))
			l.SubRoot = append(l.SubRoot, int32(i))
			l.SubSource = append(l.SubSource, p)
			l.LocalParent[i] = -1
			l.LocalDepth[i] = 0
			continue
		}
		l.Sub[i] = l.Sub[p]
		l.LocalParent[i] = p
		l.LocalDepth[i] = uint16(d)
	}
	return l
}

// nextLayerTree derives the tree of the next layer up: one node per
// subtree, an edge S_parent -> S when S's source node lies in S_parent.
// Subtree ids are assigned in preorder of the lower layer, so parents
// precede children here as well.
func nextLayerTree(l *Layer) (parent []int32, ord []uint32, internal []bool) {
	n := l.NumSubtrees()
	parent = make([]int32, n)
	ord = make([]uint32, n)
	internal = make([]bool, n)
	childCount := make([]uint32, n)
	for s := 0; s < n; s++ {
		src := l.SubSource[s]
		if src < 0 {
			parent[s] = -1
			ord[s] = 0
			continue
		}
		p := l.Sub[src]
		parent[s] = p
		childCount[p]++
		ord[s] = childCount[p]
		internal[p] = true
	}
	return parent, ord, internal
}

// lcaLocal finds the LCA of two nodes known to share a subtree, by the
// bounded parent climb (at most 2f steps — equivalent to the longest-
// common-prefix computation on their local labels). ca and cb are the
// children of a and b already known to lie on the two paths (-1 for none);
// the results are the children of the LCA on each path: the last node
// stepped from, or the incoming child where that side did not move.
func lcaLocal(l *Layer, a, ca, b, cb int32) (lca, childA, childB int32) {
	for l.LocalDepth[a] > l.LocalDepth[b] {
		a, ca = l.LocalParent[a], a
	}
	for l.LocalDepth[b] > l.LocalDepth[a] {
		b, cb = l.LocalParent[b], b
	}
	for a != b {
		a, ca = l.LocalParent[a], a
		b, cb = l.LocalParent[b], b
	}
	return a, ca, cb
}

// LCA returns the preorder ID of the least common ancestor of nodes a and
// b (preorder IDs). It implements the paper's recursive procedure: same
// subtree → local label LCP; different subtrees → recurse one layer up on
// the subtree representatives, then enter the subtree the upper-layer LCA
// represents through the source nodes of its two child subtrees
// ("Ancestors are found using source nodes") and finish locally. Each
// layer costs at most 2f steps whatever the tree's depth.
func (ix *Index) LCA(a, b int) int {
	l, _, _ := ix.lcaAt(0, int32(a), int32(b))
	return int(l)
}

// lcaAt returns the LCA of a and b in layer k's tree together with the
// child of that LCA on each side's path (-1 when the side is the LCA
// itself). The children are what spares the layer below a walk up its
// source chain: subtree ids are the next layer's node ids, so the child
// subtree on a side names the one source node through which that side
// enters the LCA's subtree.
//
// treestore's Tree.lcaAt is the same recursion over stored cells, and stays a
// second copy on purpose: a walk generic over a cell source took this one
// from ≈ 125 ns to ≈ 220 ns an LCA at depth 100k, f=16, on a 2-vCPU machine
// (≈ 310 ns through a plain interface). TestLCADifferentialNaive holds the two to phylo.LCA on
// one table of tree shapes.
func (ix *Index) lcaAt(k int, a, b int32) (lca, childA, childB int32) {
	l := ix.Layers[k]
	if l.Sub[a] == l.Sub[b] {
		return lcaLocal(l, a, -1, b, -1)
	}
	_, sa, sb := ix.lcaAt(k+1, l.Sub[a], l.Sub[b])
	ca, cb := int32(-1), int32(-1)
	if sa >= 0 {
		a, ca = l.SubSource[sa], l.SubRoot[sa]
	}
	if sb >= 0 {
		b, cb = l.SubSource[sb], l.SubRoot[sb]
	}
	return lcaLocal(l, a, ca, b, cb)
}

// LCANodes is LCA on *phylo.Node values.
func (ix *Index) LCANodes(a, b *phylo.Node) *phylo.Node {
	return ix.Tree.Nodes()[ix.LCA(a.ID, b.ID)]
}

// IsAncestor reports whether node a is a (non-strict) ancestor of node b,
// using the paper's identity: m ancestor of n ⇔ LCA(m,n) = m.
func (ix *Index) IsAncestor(a, b int) bool { return ix.LCA(a, b) == a }

// Label returns the node's local Dewey label (at most f components),
// relative to its layer-0 subtree root.
func (ix *Index) Label(id int) dewey.Label {
	return layerLabel(ix.Layers[0], int32(id))
}

func layerLabel(l *Layer, id int32) dewey.Label {
	d := int(l.LocalDepth[id])
	out := make(dewey.Label, d)
	for i := d - 1; i >= 0; i-- {
		out[i] = l.Ord[id]
		id = l.LocalParent[id]
	}
	return out
}

// Subtree returns the layer-0 subtree id containing node id.
func (ix *Index) Subtree(id int) int { return int(ix.Layers[0].Sub[int32(id)]) }

// SourceNode returns the source node of layer-0 subtree s (the node the
// subtree was split off from), or -1 for the subtree holding the root.
func (ix *Index) SourceNode(s int) int { return int(ix.Layers[0].SubSource[s]) }

// FullLabel reconstructs the node's plain (unbounded) Dewey label by
// concatenating local labels across the source-node chain. It is the
// inverse of the decomposition and is used to cross-check against package
// dewey and to order nodes in document order.
func (ix *Index) FullLabel(id int) dewey.Label {
	l := ix.Layers[0]
	cur := int32(id)
	out := layerLabel(l, cur)
	s := l.Sub[cur]
	for l.SubSource[s] != -1 {
		root := l.SubRoot[s]
		src := l.SubSource[s]
		head := append(layerLabel(l, src), l.Ord[root])
		out = append(head, out...)
		s = l.Sub[src]
	}
	return out
}

// NumLayers returns the height of the layer stack (1 for trees of depth
// <= f).
func (ix *Index) NumLayers() int { return len(ix.Layers) }

// MaxLabelLen returns the longest local label in components; it never
// exceeds f.
func (ix *Index) MaxLabelLen() int {
	max := uint16(0)
	for _, l := range ix.Layers {
		for _, d := range l.LocalDepth {
			if d > max {
				max = d
			}
		}
	}
	return int(max)
}

// TotalLabelBytes sums the encoded sizes of all local labels across all
// layers — the hierarchical index's storage footprint, compared against
// dewey.PlainIndex.TotalLabelBytes in the benchmarks.
func (ix *Index) TotalLabelBytes() int {
	total := 0
	for _, l := range ix.Layers {
		for id := range l.Parent {
			total += 4 * int(l.LocalDepth[id])
		}
	}
	return total
}

// Stats summarizes the decomposition for reporting.
type Stats struct {
	F            int
	Nodes        int
	Layers       int
	Subtrees     []int // per layer
	MaxLabelLen  int
	LabelBytes   int
	MaxTreeDepth int
}

// Stats returns decomposition statistics.
func (ix *Index) Stats() Stats {
	st := Stats{
		F:           ix.F,
		Nodes:       ix.Layers[0].NumNodes(),
		Layers:      len(ix.Layers),
		MaxLabelLen: ix.MaxLabelLen(),
		LabelBytes:  ix.TotalLabelBytes(),
	}
	for _, l := range ix.Layers {
		st.Subtrees = append(st.Subtrees, l.NumSubtrees())
	}
	st.MaxTreeDepth = ix.Tree.MaxDepth()
	return st
}

// Check verifies index invariants against the tree: every local depth is
// within the bound, subtree roots have no local parent, source links point
// into the parent subtree, and LCA agrees with a naive pointer-walk for a
// sample of node pairs. Used by tests.
func (ix *Index) Check() error {
	for k, l := range ix.Layers {
		for i := range l.Parent {
			if int(l.LocalDepth[i]) > ix.F {
				return fmt.Errorf("core: layer %d node %d local depth %d exceeds f=%d", k, i, l.LocalDepth[i], ix.F)
			}
			if (l.LocalParent[i] == -1) != (l.SubRoot[l.Sub[i]] == int32(i)) {
				return fmt.Errorf("core: layer %d node %d subtree-root flag inconsistent", k, i)
			}
			if l.LocalParent[i] != -1 && l.Sub[l.LocalParent[i]] != l.Sub[i] {
				return fmt.Errorf("core: layer %d node %d local parent in other subtree", k, i)
			}
		}
		for s, src := range l.SubSource {
			if src == -1 {
				continue
			}
			if l.Parent[l.SubRoot[s]] != src {
				return fmt.Errorf("core: layer %d subtree %d source %d is not the root's parent", k, s, src)
			}
			if l.Sub[src] == int32(s) {
				return fmt.Errorf("core: layer %d subtree %d source inside itself", k, s)
			}
		}
	}
	if ix.Layers[len(ix.Layers)-1].NumSubtrees() != 1 {
		return errors.New("core: top layer has more than one subtree")
	}
	return nil
}
