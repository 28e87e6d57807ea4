// Package phylo provides the in-memory model of rooted, edge-weighted
// phylogenetic trees used throughout Crimson. Edge weights represent
// evolutionary time from parent to child, as in Figure 1 of the paper.
package phylo

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Node is one vertex of a phylogenetic tree. Leaves carry species names;
// interior nodes may be anonymous. Length is the weight of the edge from
// the parent (0 for the root).
type Node struct {
	ID       int     // stable preorder id assigned by Tree.Reindex
	Name     string  // species name; may be empty for interior nodes
	Length   float64 // evolutionary time from parent to this node
	Parent   *Node
	Children []*Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AddChild appends child to n and sets its parent pointer.
func (n *Node) AddChild(child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// Tree is a rooted phylogenetic tree. The zero Tree is empty; build trees
// with New or by parsing Newick/NEXUS.
type Tree struct {
	Root *Node

	// The preorder list and the name lookup are built on first use, and
	// concurrent readers may both find one missing (perfbench's two clients
	// do): each builds it complete and publishes it whole, so none ever
	// reads a list or a map being filled. Mutation is not concurrent-safe.
	nodes  atomic.Pointer[[]*Node]
	byName atomic.Pointer[map[string]*Node]
}

// New returns a tree rooted at root.
func New(root *Node) *Tree { return &Tree{Root: root} }

// invalidate drops derived lookups after a mutation.
func (t *Tree) invalidate() {
	t.byName.Store(nil)
	t.nodes.Store(nil)
}

// Mutated must be called after external code changes the tree's structure
// or names, so cached lookups are rebuilt.
func (t *Tree) Mutated() { t.invalidate() }

// Reindex assigns preorder ids (root = 0) and rebuilds cached lookups.
func (t *Tree) Reindex() {
	t.invalidate()
	id := 0
	for _, n := range t.Nodes() {
		n.ID = id
		id++
	}
}

// Nodes returns all nodes in preorder (parent before children, children in
// stored order). The returned slice is cached; treat it as read-only.
func (t *Tree) Nodes() []*Node {
	if p := t.nodes.Load(); p != nil {
		return *p
	}
	if t.Root == nil {
		return nil
	}
	var out []*Node
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	t.nodes.Store(&out)
	return out
}

// Leaves returns the leaf nodes in preorder.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	for _, n := range t.Nodes() {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// LeafNames returns the names of all leaves in preorder.
func (t *Tree) LeafNames() []string {
	leaves := t.Leaves()
	out := make([]string, len(leaves))
	for i, l := range leaves {
		out[i] = l.Name
	}
	return out
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.Nodes()) }

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return len(t.Leaves()) }

// NodeByName finds a node by name. Returns nil if absent or name is empty.
func (t *Tree) NodeByName(name string) *Node {
	if name == "" {
		return nil
	}
	m := t.byName.Load()
	if m == nil {
		built := make(map[string]*Node)
		for _, n := range t.Nodes() {
			if n.Name != "" {
				built[n.Name] = n
			}
		}
		m = &built
		t.byName.Store(m)
	}
	return (*m)[name]
}

// Depth returns the number of edges from the root to n.
func Depth(n *Node) int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// MaxDepth returns the maximum node depth (in edges) of the tree,
// computed in one preorder pass.
func (t *Tree) MaxDepth() int {
	max := 0
	depth := make(map[*Node]int, t.NumNodes())
	for _, n := range t.Nodes() { // preorder: parent precedes children
		d := 0
		if n.Parent != nil {
			d = depth[n.Parent] + 1
		}
		depth[n] = d
		if d > max {
			max = d
		}
	}
	return max
}

// RootDistances returns each node's root distance keyed by node pointer,
// computed in one pass.
func (t *Tree) RootDistances() map[*Node]float64 {
	out := make(map[*Node]float64, t.NumNodes())
	for _, n := range t.Nodes() { // preorder: parent precedes children
		if n.Parent == nil {
			out[n] = 0
		} else {
			out[n] = out[n.Parent] + n.Length
		}
	}
	return out
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t.Root == nil {
		return &Tree{}
	}
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{ID: n.ID, Name: n.Name, Length: n.Length}
		for _, c := range n.Children {
			cc := cp(c)
			cc.Parent = m
			m.Children = append(m.Children, cc)
		}
		return m
	}
	return &Tree{Root: cp(t.Root)}
}

// Validate checks structural invariants: parent/child pointer consistency,
// acyclicity, non-negative edge lengths, and unique non-empty leaf names.
//
// The walk takes memory in proportion to the tree's node count, not to its
// pointers: when the cached preorder gives the count, a visit is marked by
// the node's preorder id in a bitmap and a leaf name by its hash in a flat
// table. Ids that are not a permutation of 0..n-1, a second visit, or two
// names with one hash send the check back to a walk over a set of node
// pointers and a set of names, which finds the same first problem.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return errors.New("phylo: tree has no root")
	}
	if t.Root.Parent != nil {
		return errors.New("phylo: root has a parent")
	}
	// A cached preorder sizes the marks: it is the last walk's count, exact
	// unless the tree changed since without Mutated.
	nodes, leaves := 0, 0
	if p := t.nodes.Load(); p != nil {
		nodes = len(*p)
		for _, n := range *p {
			if n.IsLeaf() {
				leaves++
			}
		}
	}
	if nodes > 0 {
		visited := make([]uint64, (nodes+63)/64)
		names := newNameHashes(leaves)
		done, err := t.validate(func(n *Node) (again, ok bool) {
			id := n.ID
			if uint(id) >= uint(nodes) || visited[id/64]&(1<<(id%64)) != 0 {
				return false, false
			}
			visited[id/64] |= 1 << (id % 64)
			return false, true
		}, names.add)
		if done {
			return err
		}
	}
	seen := make(map[*Node]struct{}, nodes)
	names := make(map[string]struct{}, leaves)
	_, err := t.validate(func(n *Node) (again, ok bool) {
		if _, again = seen[n]; !again {
			seen[n] = struct{}{}
		}
		return again, true
	}, func(name string) (again, ok bool) {
		if _, again = names[name]; !again {
			names[name] = struct{}{}
		}
		return again, true
	})
	return err
}

// validate walks the tree in preorder on an explicit stack (a caterpillar
// is as deep as it has leaves) and returns the first problem. visit records
// a node's visit and leaf a leaf's name, each reporting whether it was
// recorded before; either may give up instead (ok false), and then so does
// the walk (done false).
func (t *Tree) validate(visit func(n *Node) (again, ok bool), leaf func(name string) (again, ok bool)) (done bool, err error) {
	type frame struct{ n, parent *Node }
	stack := []frame{{t.Root, nil}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := f.n
		// A second visit is checked before the parent pointer: a node under
		// two parents, or under itself, is a DAG or a cycle, not just a bad
		// pointer.
		if again, ok := visit(n); !ok {
			return false, nil
		} else if again {
			return true, fmt.Errorf("phylo: node %q appears twice (cycle or DAG)", n.Name)
		}
		if n.Parent != f.parent {
			return true, fmt.Errorf("phylo: child %q has wrong parent pointer", n.Name)
		}
		if n.Length < 0 {
			return true, fmt.Errorf("phylo: node %q has negative edge length %g", n.Name, n.Length)
		}
		if n.IsLeaf() {
			if n.Name == "" {
				return true, errors.New("phylo: leaf without a name")
			}
			if again, ok := leaf(n.Name); !ok {
				return false, nil
			} else if again {
				return true, fmt.Errorf("phylo: duplicate leaf name %q", n.Name)
			}
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, frame{n.Children[i], n})
		}
	}
	return true, nil
}

// nameHashes is a set of leaf-name hashes, open-addressed in a flat table
// of eight bytes a slot: it holds no strings and no pointers. Equal hashes
// are taken for equal names only by giving up (see Validate).
type nameHashes struct {
	seed  maphash.Seed
	slots []uint64 // 0 marks a free slot
	free  int      // slots left before the table counts as full
}

// newNameHashes returns a set with room for n names at most three quarters
// full.
func newNameHashes(n int) *nameHashes {
	size := 1 << bits.Len(uint(n+n/3))
	return &nameHashes{seed: maphash.MakeSeed(), slots: make([]uint64, size), free: size * 3 / 4}
}

// add records name. It gives up when name's hash is already in the set, or
// the set is full: the cached leaf count it was sized by was stale.
func (s *nameHashes) add(name string) (again, ok bool) {
	if s.free == 0 {
		return false, false
	}
	h := maphash.String(s.seed, name) | 1
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = h
			s.free--
			return false, true
		case h:
			return false, false
		}
	}
}

// SuppressUnary merges out-degree-1 interior nodes with their single child,
// summing edge lengths, exactly as the paper does during projection ("we
// merge it with its child and take the new edge weight as the sum of the
// two edge weights"). The root is merged too if it has a single child.
func (t *Tree) SuppressUnary() {
	if t.Root == nil {
		return
	}
	t.invalidate()
	for len(t.Root.Children) == 1 {
		child := t.Root.Children[0]
		child.Parent = nil
		// The paper's convention keeps the projected subtree rooted at the
		// first branching point; the dropped root edge length is discarded
		// (there is no edge above the root).
		t.Root = child
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for i := 0; i < len(n.Children); i++ {
			c := n.Children[i]
			for len(c.Children) == 1 {
				g := c.Children[0]
				g.Length += c.Length
				g.Parent = n
				n.Children[i] = g
				c = g
			}
			walk(c)
		}
	}
	walk(t.Root)
}

// SortChildren orders every node's children by (leaf-set minimum name),
// producing a canonical child order so structurally equal trees compare
// equal. Returns the tree for chaining.
func (t *Tree) SortChildren() *Tree {
	if t.Root == nil {
		return t
	}
	t.invalidate()
	minName := make(map[*Node]string)
	var compute func(n *Node) string
	compute = func(n *Node) string {
		if n.IsLeaf() {
			minName[n] = n.Name
			return n.Name
		}
		best := ""
		for _, c := range n.Children {
			m := compute(c)
			if best == "" || (m != "" && m < best) {
				best = m
			}
		}
		minName[n] = best
		return best
	}
	compute(t.Root)
	var walk func(n *Node)
	walk = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return minName[n.Children[i]] < minName[n.Children[j]]
		})
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return t
}

// Equal reports whether two trees are identical in topology, names and edge
// lengths (with tolerance eps), respecting child order. Callers wanting
// order-insensitive comparison should SortChildren both trees first.
func Equal(a, b *Tree, eps float64) bool {
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if x.Name != y.Name || len(x.Children) != len(y.Children) {
			return false
		}
		if diff := x.Length - y.Length; diff > eps || diff < -eps {
			return false
		}
		for i := range x.Children {
			if !eq(x.Children[i], y.Children[i]) {
				return false
			}
		}
		return true
	}
	if (a.Root == nil) != (b.Root == nil) {
		return false
	}
	if a.Root == nil {
		return true
	}
	return eq(a.Root, b.Root)
}

// LCA returns the least common ancestor of a and b by the naive parent
// walk: climb the deeper node to the shallower depth, then climb both in
// lockstep. It costs O(depth) per query and is the baseline the labeling
// schemes (packages dewey and core) are measured against.
func LCA(a, b *Node) *Node {
	da, db := Depth(a), Depth(b)
	for da > db {
		a = a.Parent
		da--
	}
	for db > da {
		b = b.Parent
		db--
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// PaperFigure1 builds the 5-species example tree of Figure 1 in the paper:
//
//	root ─2.5── Syn
//	root ─0.5── x ─1.5── y ─1─ Lla
//	            │        y ─1─ Spy
//	            x ─0.75─ Bha
//	root ─1.25─ Bsu
//
// The child order and weights are pinned down by the paper's worked
// examples rather than the (OCR-mangled) figure drawing:
//
//   - Dewey labels: Lla = (2.1.1) and Spy = (2.1.2), so x is the root's
//     second child and y is x's first child;
//   - time sampling at distance 1 must yield the frontier
//     {Bha, y, Syn, Bsu} (the paper calls y "x, the parent node of Lla and
//     Spy"), so root→x = 0.5 (making x's distance ≤ 1) and x→y = 1.5;
//   - projection of {Bha, Lla, Syn} merges y into Lla with weight
//     1.5 + 1 = 2.5 (Figure 2).
func PaperFigure1() *Tree {
	bha := &Node{Name: "Bha", Length: 0.75}
	lla := &Node{Name: "Lla", Length: 1}
	spy := &Node{Name: "Spy", Length: 1}
	syn := &Node{Name: "Syn", Length: 2.5}
	bsu := &Node{Name: "Bsu", Length: 1.25}
	y := &Node{Length: 1.5}
	y.AddChild(lla)
	y.AddChild(spy)
	x := &Node{Length: 0.5}
	x.AddChild(y)
	x.AddChild(bha)
	root := &Node{}
	root.AddChild(syn)
	root.AddChild(x)
	root.AddChild(bsu)
	t := New(root)
	t.Reindex()
	return t
}
