package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	crimson "repro"
	"repro/internal/phylo"
	"repro/internal/sample"
)

// shapeCheck is the cheap inline check every op gets inside the timed
// loop: the right number of leaves, distinct sorted names, a payload that
// matches what the generator put. It touches nothing but the response.
func shapeCheck(fx *fixture, o *op, res *result) error {
	switch o.kind {
	case opLCA:
		if res.node.ID < 0 || res.node.Leaf {
			return fmt.Errorf("lca of two distinct leaves is node %d (leaf=%v)", res.node.ID, res.node.Leaf)
		}
	case opProject:
		if res.leaves != len(o.names) {
			return fmt.Errorf("projection has %d leaves, want %d", res.leaves, len(o.names))
		}
	case opClade:
		if res.leaves < cladeMin || res.leaves > cladeMax || res.leaves != len(res.names) || !sortedDistinct(res.names) {
			return fmt.Errorf("clade has %d leaves, %d names, want %d-%d distinct sorted", res.leaves, len(res.names), cladeMin, cladeMax)
		}
	case opSample, opSampleTime:
		if len(res.names) != o.k || !sortedDistinct(res.names) {
			return fmt.Errorf("sample has %d names, want %d distinct sorted", len(res.names), o.k)
		}
	case opInfo, opLoad:
		tf := fx.byName[o.tree]
		if o.kind == opLoad {
			tf = fx.churnBody(o.body)
		}
		if res.n != tf.tree.NumNodes() || res.leaves != len(tf.leaves) {
			return fmt.Errorf("tree reports %d nodes / %d leaves, want %d / %d", res.n, res.leaves, tf.tree.NumNodes(), len(tf.leaves))
		}
	case opTrees:
		if res.n < len(fx.resident) {
			return fmt.Errorf("listing has %d trees, want at least %d", res.n, len(fx.resident))
		}
	case opMatch:
		if res.rf != 0 {
			return fmt.Errorf("pattern taken from the tree itself matches with RF=%d", res.rf)
		}
	case opExport:
		if len(res.newick) < len(fx.small.body)/2 {
			return fmt.Errorf("export is %d bytes, upload was %d", len(res.newick), len(fx.small.body))
		}
	case opGet:
		if !bytes.Equal(res.data, o.data) {
			return fmt.Errorf("species %s holds version %x, want %x", o.names[0], head(res.data), head(o.data))
		}
	case opList:
		if res.n != 1 {
			return fmt.Errorf("species %s lists %d records, want 1", o.names[0], res.n)
		}
	}
	return nil
}

func head(b []byte) []byte { return b[:min(len(b), 8)] }

func sortedDistinct(names []string) bool {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			return false
		}
	}
	return true
}

func (fx *fixture) churnBody(body string) *treeFix {
	for _, tf := range fx.churn {
		if tf.body == body {
			return tf
		}
	}
	return nil
}

// resultTree returns a projection-like answer as a tree, whichever form
// the entrance delivered it in.
func resultTree(res *result) (*phylo.Tree, error) {
	if res.tree != nil {
		return res.tree, nil
	}
	return crimson.ParseNewick(res.newick)
}

const lengthEps = 1e-9

// sameTree compares two trees ignoring child order, edge lengths within
// lengthEps: the stored engine and the in-memory one sum the same lengths
// in a different order.
func sameTree(a, b *phylo.Tree) bool {
	return phylo.Equal(a.Clone().SortChildren(), b.Clone().SortChildren(), lengthEps)
}

// oracleCheck answers the query with the in-memory engine (core.Build +
// project + sample + the naive phylo.LCA) on the same generated tree and
// compares. It runs after the measured phase, on the sampled ops.
func oracleCheck(fx *fixture, o *op, res *result) error {
	tf := fx.byName[o.tree]
	switch o.kind {
	case opLCA:
		a, b := tf.tree.NodeByName(o.names[0]), tf.tree.NodeByName(o.names[1])
		want := tf.ix.LCANodes(a, b)
		if naive := phylo.LCA(a, b); naive != want {
			return fmt.Errorf("oracle disagrees with itself: layered LCA %d, naive %d", want.ID, naive.ID)
		}
		return sameNode(res.node, want)
	case opProject, opMatch:
		names := o.names
		if o.kind == opMatch {
			names = o.pattern.LeafNames()
		}
		want, err := tf.plan.ProjectNames(names)
		if err != nil {
			return err
		}
		got, err := resultTree(res)
		if err != nil {
			return fmt.Errorf("unparseable projection: %w", err)
		}
		if !sameTree(got, want) {
			return fmt.Errorf("projection over %d species differs from the in-memory engine's", len(names))
		}
	case opClade:
		root := tf.tree.NodeByName(o.names[0])
		for _, name := range o.names[1:] {
			root = tf.ix.LCANodes(root, tf.tree.NodeByName(name))
		}
		if err := sameNode(res.node, root); err != nil {
			return err
		}
		var want []string
		nodes := 0
		for _, n := range tf.tree.Nodes()[root.ID:] {
			if n != root && phylo.LCA(n.Parent, root) != root {
				break // preorder left the subtree
			}
			nodes++
			if n.IsLeaf() {
				want = append(want, n.Name)
			}
		}
		sort.Strings(want)
		if res.n != nodes || !slices.Equal(res.names, want) {
			return fmt.Errorf("clade under node %d has %d nodes / %d species, want %d / %d", root.ID, res.n, len(res.names), nodes, len(want))
		}
	case opSample:
		// The stored engine draws by rejection on node ids; the in-memory
		// sample.Uniform shuffles leaves. Both are uniform but consume the
		// source differently, so the check is membership plus the seeded
		// draw replayed on the oracle tree.
		if want := uniformByRejection(tf.tree, o.k, o.seed); !slices.Equal(res.names, want) {
			return fmt.Errorf("seeded sample (k=%d seed=%d) differs from the replayed draw", o.k, o.seed)
		}
	case opSampleTime:
		nodes, err := sample.WithRespectToTime(tf.tree, o.time, o.k, rand.New(rand.NewSource(o.seed)))
		if err != nil {
			return err
		}
		want := sample.Names(nodes)
		sort.Strings(want)
		if !slices.Equal(res.names, want) {
			return fmt.Errorf("time-constrained sample (t=%g k=%d seed=%d) differs from the in-memory engine's", o.time, o.k, o.seed)
		}
	case opExport:
		got, err := crimson.ParseNewick(res.newick)
		if err != nil {
			return fmt.Errorf("unparseable export: %w", err)
		}
		if !phylo.Equal(got, tf.tree, lengthEps) {
			return fmt.Errorf("export of %s differs from the uploaded tree", o.tree)
		}
	}
	return nil
}

func sameNode(got nodeRes, want *phylo.Node) error {
	parent := -1
	if want.Parent != nil {
		parent = want.Parent.ID
	}
	if got.ID != want.ID || got.Parent != parent || got.Name != want.Name || got.Leaf != want.IsLeaf() ||
		math.Abs(got.Length-want.Length) > lengthEps || got.Depth != phylo.Depth(want) {
		return fmt.Errorf("node %d (parent %d, depth %d, %q), want %d (parent %d, depth %d, %q)",
			got.ID, got.Parent, got.Depth, got.Name, want.ID, parent, phylo.Depth(want), want.Name)
	}
	return nil
}

// uniformByRejection replays treestore's seeded uniform draw on the
// in-memory tree: node ids drawn until k distinct leaves are hit.
func uniformByRejection(t *phylo.Tree, k int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	nodes := t.Nodes()
	picked := make(map[int]bool, k)
	names := make([]string, 0, k)
	for len(names) < k {
		id := rng.Intn(len(nodes))
		if picked[id] || !nodes[id].IsLeaf() {
			continue
		}
		picked[id] = true
		names = append(names, nodes[id].Name)
	}
	sort.Strings(names)
	return names
}
