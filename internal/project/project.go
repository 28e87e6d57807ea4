// Package project implements tree projection (§1 and §2.2 of the paper):
// given a tree T and a subset S of its leaves, the projection of T over S
// is the subtree induced by S in which every node has at least two
// children; out-degree-1 nodes are merged with their child, summing edge
// weights (Figure 2).
//
// The algorithm follows the paper: sort the input leaf set in preorder of
// T, then insert nodes left to right maintaining the rightmost path of the
// growing projection; ancestor/descendant questions are answered with LCA
// queries ("m is an ancestor of n iff LCA(m,n) = m"). The unary-node
// merging of the paper happens implicitly: edge weights in the projection
// are differences of root distances, so a suppressed chain contributes the
// sum of its edge weights (1.5 + 1 = 2.5 for Lla in Figure 2).
//
// Build is that algorithm, once, over nodes as Vertex values and an LCA
// function: Planner runs it over an in-memory tree and its index, package
// treestore over stored rows and the stored LCA walk.
package project

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/phylo"
)

// lcaFinder answers least-common-ancestor queries on a tree. Both the
// hierarchical index (core.Index) and test oracles implement it.
type lcaFinder interface {
	LCANodes(a, b *phylo.Node) *phylo.Node
}

// NaiveLCA adapts the pointer-walk LCA to lcaFinder, for tests and for
// trees too small to index.
type NaiveLCA struct{}

// LCANodes returns the LCA by parent walking.
func (NaiveLCA) LCANodes(a, b *phylo.Node) *phylo.Node { return phylo.LCA(a, b) }

// Planner prepares per-tree arrays (depths and root distances, indexed by
// preorder id) once so repeated projections cost O(k · f) LCA work instead
// of O(n) per call. The tree must have preorder IDs (Reindex).
type Planner struct {
	tree  *phylo.Tree
	lca   lcaFinder
	nodes []*phylo.Node // preorder: nodes[n.ID] == n exactly for the tree's own nodes
	depth []int
	dist  []float64
}

// NewPlanner builds a planner for t using the given LCA implementation.
func NewPlanner(t *phylo.Tree, lca lcaFinder) *Planner {
	nodes := t.Nodes()
	p := &Planner{
		tree:  t,
		lca:   lca,
		nodes: nodes,
		depth: make([]int, len(nodes)),
		dist:  make([]float64, len(nodes)),
	}
	for i, n := range nodes { // preorder: parents first
		if n.Parent != nil {
			p.depth[i] = p.depth[n.Parent.ID] + 1
			p.dist[i] = p.dist[n.Parent.ID] + n.Length
		}
	}
	return p
}

// Errors returned by Project.
var (
	errEmptySelection = errors.New("project: empty leaf selection")
	errForeignNode    = errors.New("project: node not in the planner's tree")
)

// Vertex is a node of the projected tree as Build sees it: its preorder id
// (equal ids are the same node), depth in edges and distance from the root,
// and name. Both query engines hand Build their nodes in this form.
type Vertex struct {
	ID    int
	Depth int
	Dist  float64
	Name  string
}

// Build is the paper's projection, whatever the nodes come from: sort the
// selection in preorder and drop repeats ("we sort the input leaf set
// according to the pre-order of tree T"), then insert the nodes left to
// right keeping the rightmost path of the growing projection on a stack; lca
// answers the ancestor questions. sel is sorted in place. The result is a
// fresh tree whose node names are copied from the vertices, with edge weights
// the differences of root distances; its root is the LCA of the selection
// (or the vertex itself for a singleton, when lca is never called).
func Build(sel []Vertex, lca func(a, b Vertex) (Vertex, error)) (*phylo.Tree, error) {
	if len(sel) == 0 {
		return nil, errEmptySelection
	}
	slices.SortFunc(sel, func(a, b Vertex) int { return cmp.Compare(a.ID, b.ID) })
	sel = slices.CompactFunc(sel, func(a, b Vertex) bool { return a.ID == b.ID })

	type entry struct {
		v  Vertex
		nw *phylo.Node
	}
	// stack holds the rightmost path of the projection under construction,
	// shallowest at the bottom. unwind pops the entries deeper than depth,
	// linking each to the one popped after it, and returns the shallowest of
	// them (nw nil when none was).
	var stack []entry
	push := func(v Vertex) { stack = append(stack, entry{v: v, nw: &phylo.Node{Name: v.Name}}) }
	attach := func(parent, child entry) {
		child.nw.Length = child.v.Dist - parent.v.Dist
		parent.nw.AddChild(child.nw)
	}
	unwind := func(depth int) (last entry) {
		for len(stack) > 0 && stack[len(stack)-1].v.Depth > depth {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if last.nw != nil {
				attach(e, last)
			}
			last = e
		}
		return last
	}
	push(sel[0])
	for _, x := range sel[1:] {
		l, err := lca(stack[len(stack)-1].v, x)
		if err != nil {
			return nil, err
		}
		last := unwind(l.Depth)
		if len(stack) == 0 || stack[len(stack)-1].v.ID != l.ID {
			push(l)
		}
		if last.nw != nil {
			attach(stack[len(stack)-1], last)
		}
		push(x)
	}
	t := phylo.New(unwind(-1).nw)
	t.Reindex()
	return t, nil
}

// Project returns the projection of the planner's tree over the given
// nodes (normally leaves), through Build. Duplicates are removed. The
// result is a fresh tree whose node names are copied from the originals.
func (p *Planner) Project(selection []*phylo.Node) (*phylo.Tree, error) {
	sel := make([]Vertex, len(selection))
	for i, n := range selection {
		if n.ID < 0 || n.ID >= len(p.nodes) || p.nodes[n.ID] != n {
			return nil, fmt.Errorf("%w: %q", errForeignNode, n.Name)
		}
		sel[i] = p.vertex(n)
	}
	return Build(sel, func(a, b Vertex) (Vertex, error) {
		return p.vertex(p.lca.LCANodes(p.nodes[a.ID], p.nodes[b.ID])), nil
	})
}

func (p *Planner) vertex(n *phylo.Node) Vertex {
	return Vertex{ID: n.ID, Depth: p.depth[n.ID], Dist: p.dist[n.ID], Name: n.Name}
}

// ProjectNames projects over leaves identified by name.
func (p *Planner) ProjectNames(names []string) (*phylo.Tree, error) {
	sel := make([]*phylo.Node, 0, len(names))
	for _, name := range names {
		n := p.tree.NodeByName(name)
		if n == nil {
			return nil, fmt.Errorf("project: no node named %q", name)
		}
		sel = append(sel, n)
	}
	return p.Project(sel)
}
