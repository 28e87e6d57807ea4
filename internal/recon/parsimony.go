package recon

import (
	"errors"
	"math/rand"

	"repro/internal/phylo"
	"repro/internal/seqsim"
)

// Parsimony is a greedy maximum-parsimony reconstruction: taxa are added
// sequentially (in a seeded random order), each at the insertion point
// that minimizes the Fitch (1971) small-parsimony score. It is the
// character-based counterpart to the distance methods, representing the
// second family of algorithms a CIPRes-era benchmark would evaluate. It
// works directly on sequences rather than a distance matrix.
type Parsimony struct {
	Seed int64 // addition-order seed; runs are deterministic per seed
}

// Name implements a benchmark-compatible identity.
func (p Parsimony) Name() string { return "MP" }

// fitchSets holds one bitmask (bits 0..3 = A,C,G,T) per site.
type fitchSets []uint8

// ReconstructSeqs infers a tree from aligned sequences by greedy
// stepwise addition under the Fitch criterion.
func (p Parsimony) ReconstructSeqs(aln *seqsim.Alignment) (*phylo.Tree, error) {
	if len(aln.Names) < 2 {
		return nil, errTooFewTaxa
	}
	sites := aln.Len()
	if sites == 0 {
		return nil, errors.New("recon: parsimony needs at least one site")
	}
	leafSets := make(map[string]fitchSets, len(aln.Names))
	for _, name := range aln.Names {
		seq := aln.Seqs[name]
		fs := make(fitchSets, sites)
		for i := 0; i < sites; i++ {
			if b := seqsim.BaseIndex(seq[i]); b >= 0 {
				fs[i] = 1 << uint(b)
			} else {
				fs[i] = 0b1111 // ambiguous/missing: any state
			}
		}
		leafSets[name] = fs
	}
	order := append([]string(nil), aln.Names...)
	r := rand.New(rand.NewSource(p.Seed))
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Start from the first two taxa under a root.
	root := &phylo.Node{}
	root.AddChild(&phylo.Node{Name: order[0], Length: 1})
	root.AddChild(&phylo.Node{Name: order[1], Length: 1})
	t := phylo.New(root)

	for _, name := range order[2:] {
		edges := collectEdges(t.Root)
		bestScore := -1
		var bestEdge *phylo.Node
		for _, e := range edges {
			score := p.scoreWithInsertion(t, e, name, leafSets, sites)
			if bestScore < 0 || score < bestScore {
				bestScore = score
				bestEdge = e
			}
		}
		insertOnEdge(bestEdge, &phylo.Node{Name: name, Length: 1})
		t.Mutated()
	}
	t.Reindex()
	return t, nil
}

// collectEdges returns the child endpoint of every edge (each child node
// represents the edge above it).
func collectEdges(root *phylo.Node) []*phylo.Node {
	var out []*phylo.Node
	var walk func(n *phylo.Node)
	walk = func(n *phylo.Node) {
		for _, c := range n.Children {
			out = append(out, c)
			walk(c)
		}
	}
	walk(root)
	return out
}

// insertOnEdge splits the edge above "at" with a new interior node and
// hangs leaf from it.
func insertOnEdge(at *phylo.Node, leaf *phylo.Node) {
	parent := at.Parent
	mid := &phylo.Node{Length: at.Length / 2}
	at.Length /= 2
	for i, c := range parent.Children {
		if c == at {
			parent.Children[i] = mid
			break
		}
	}
	mid.Parent = parent
	mid.AddChild(at)
	mid.AddChild(leaf)
}

// scoreWithInsertion computes the Fitch score of the tree with the new
// taxon attached above "at", without mutating the tree.
func (p Parsimony) scoreWithInsertion(t *phylo.Tree, at *phylo.Node, name string, leafSets map[string]fitchSets, sites int) int {
	score := 0
	var fitch func(n *phylo.Node) fitchSets
	fitch = func(n *phylo.Node) fitchSets {
		var below fitchSets
		if n.IsLeaf() {
			below = leafSets[n.Name]
		} else {
			below = fitch(n.Children[0])
			for _, c := range n.Children[1:] {
				below = fitchMerge(below, fitch(c), &score)
			}
		}
		if n == at {
			// The new leaf joins here through a fresh interior node.
			below = fitchMerge(below, leafSets[name], &score)
		}
		return below
	}
	fitch(t.Root)
	return score
}

// fitchMerge combines two child state-sets: intersection when non-empty,
// otherwise union plus one mutation.
func fitchMerge(a, b fitchSets, score *int) fitchSets {
	out := make(fitchSets, len(a))
	for i := range a {
		if inter := a[i] & b[i]; inter != 0 {
			out[i] = inter
		} else {
			out[i] = a[i] | b[i]
			*score++
		}
	}
	return out
}
