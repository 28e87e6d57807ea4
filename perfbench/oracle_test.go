package main

import (
	"testing"

	crimson "repro"
)

// The oracle has to catch what it exists for: a projection with one wrong
// leaf and an LCA that is one node off.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	fx := quickFixture(t, "served_cold", 9)
	g := newOpGen(fx, 9, 0, "")

	proj := g.fresh(opProject)
	tf := fx.byName[proj.tree]
	right, err := tf.plan.ProjectNames(proj.names)
	if err != nil {
		t.Fatal(err)
	}
	res := result{newick: crimson.FormatNewick(right), leaves: len(proj.names)}
	if err := oracleCheck(fx, &proj, &res); err != nil {
		t.Fatalf("oracle rejects its own projection: %v", err)
	}
	other := append([]string(nil), proj.names...)
	for _, leaf := range tf.leaves {
		if right.NodeByName(leaf.Name) == nil {
			other[0] = leaf.Name // one species swapped for one outside the selection
			break
		}
	}
	wrong, err := tf.plan.ProjectNames(other)
	if err != nil {
		t.Fatal(err)
	}
	res.newick = crimson.FormatNewick(wrong)
	if err := oracleCheck(fx, &proj, &res); err == nil {
		t.Error("oracle accepted a projection with a foreign leaf")
	}
	if err := shapeCheck(fx, &proj, &result{leaves: len(proj.names) - 1}); err == nil {
		t.Error("shape check accepted a projection that lost a leaf")
	}

	lca := g.fresh(opLCA)
	tf = fx.byName[lca.tree]
	anc := tf.ix.LCANodes(tf.tree.NodeByName(lca.names[0]), tf.tree.NodeByName(lca.names[1]))
	node := func(id int) nodeRes {
		n := tf.tree.Nodes()[id]
		r := nodeRes{ID: n.ID, Parent: -1, Name: n.Name, Leaf: n.IsLeaf(), Length: n.Length}
		for p := n.Parent; p != nil; p = p.Parent {
			r.Depth++
		}
		if n.Parent != nil {
			r.Parent = n.Parent.ID
		}
		return r
	}
	if err := oracleCheck(fx, &lca, &result{node: node(anc.ID)}); err != nil {
		t.Fatalf("oracle rejects the right LCA: %v", err)
	}
	if err := oracleCheck(fx, &lca, &result{node: node(anc.Children[0].ID)}); err == nil {
		t.Error("oracle accepted a child of the LCA as the LCA")
	}
}
