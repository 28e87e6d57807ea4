// Package recon implements the baseline phylogenetic tree reconstruction
// algorithms the Benchmark Manager evaluates against the gold-standard
// simulation tree: UPGMA (unweighted pair group method with arithmetic
// mean) and Neighbor-Joining (Saitou & Nei 1987). Both are distance
// methods, the canonical fast reconstructions of the paper's era; the
// phylogeny problem itself is NP-hard (paper §1), which is why sampled
// benchmarking exists at all.
package recon

import (
	"errors"
	"fmt"

	"repro/internal/distance"
	"repro/internal/phylo"
	"repro/internal/seqsim"
)

// Algorithm is a distance-based tree reconstruction method under
// evaluation.
type Algorithm interface {
	// Name identifies the algorithm in benchmark reports.
	Name() string
	// Reconstruct infers a rooted tree from pairwise distances.
	Reconstruct(m *distance.Matrix) (*phylo.Tree, error)
}

// SeqAlgorithm is a character-based reconstruction method that works on
// the aligned sequences directly (e.g. maximum parsimony).
type SeqAlgorithm interface {
	// Name identifies the algorithm in benchmark reports.
	Name() string
	// ReconstructSeqs infers a rooted tree from aligned sequences.
	ReconstructSeqs(aln *seqsim.Alignment) (*phylo.Tree, error)
}

// errTooFewTaxa is returned for matrices with fewer than 2 taxa.
var errTooFewTaxa = errors.New("recon: need at least 2 taxa")

// ErrUnknownAlgorithm is returned by ByNames for a name it does not know.
var ErrUnknownAlgorithm = errors.New("recon: unknown algorithm")

// UPGMA implements average-linkage hierarchical clustering. It assumes a
// molecular clock (ultrametric input) and produces a rooted binary tree.
type UPGMA struct{}

// Name implements Algorithm.
func (UPGMA) Name() string { return "UPGMA" }

// Reconstruct implements Algorithm.
func (UPGMA) Reconstruct(m *distance.Matrix) (*phylo.Tree, error) {
	n := m.Len()
	if n < 2 {
		return nil, errTooFewTaxa
	}
	type cluster struct {
		node   *phylo.Node
		size   int
		height float64 // distance from cluster root down to its leaves
	}
	clusters := make([]*cluster, n)
	for i, name := range m.Names {
		clusters[i] = &cluster{node: &phylo.Node{Name: name}, size: 1}
	}
	// Working copy of the distance matrix.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), m.D[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 1 {
		// Find the closest pair among active clusters.
		bi, bj := 0, 1
		best := d[active[0]][active[1]]
		for x := 0; x < len(active); x++ {
			for y := x + 1; y < len(active); y++ {
				if v := d[active[x]][active[y]]; v < best {
					best, bi, bj = v, x, y
				}
			}
		}
		i, j := active[bi], active[bj]
		ci, cj := clusters[i], clusters[j]
		h := best / 2
		parent := &phylo.Node{}
		ci.node.Length = h - ci.height
		cj.node.Length = h - cj.height
		if ci.node.Length < 0 {
			ci.node.Length = 0
		}
		if cj.node.Length < 0 {
			cj.node.Length = 0
		}
		parent.AddChild(ci.node)
		parent.AddChild(cj.node)
		merged := &cluster{node: parent, size: ci.size + cj.size, height: h}
		// Average-linkage update into slot i.
		for _, k := range active {
			if k == i || k == j {
				continue
			}
			d[i][k] = (d[i][k]*float64(ci.size) + d[j][k]*float64(cj.size)) / float64(ci.size+cj.size)
			d[k][i] = d[i][k]
		}
		clusters[i] = merged
		active = append(active[:bj], active[bj+1:]...)
	}
	t := phylo.New(clusters[active[0]].node)
	t.Reindex()
	return t, nil
}

// NeighborJoining implements the Saitou–Nei algorithm. It does not assume
// a clock; the unrooted result is rooted at the final three-way join,
// which is adequate for the topology-based RF scoring used in benchmarks.
type NeighborJoining struct{}

// Name implements Algorithm.
func (NeighborJoining) Name() string { return "NJ" }

// Reconstruct implements Algorithm.
func (NeighborJoining) Reconstruct(m *distance.Matrix) (*phylo.Tree, error) {
	n := m.Len()
	if n < 2 {
		return nil, errTooFewTaxa
	}
	if n == 2 {
		root := &phylo.Node{}
		a := &phylo.Node{Name: m.Names[0], Length: m.At(0, 1) / 2}
		b := &phylo.Node{Name: m.Names[1], Length: m.At(0, 1) / 2}
		root.AddChild(a)
		root.AddChild(b)
		t := phylo.New(root)
		t.Reindex()
		return t, nil
	}
	nodes := make([]*phylo.Node, n)
	for i, name := range m.Names {
		nodes[i] = &phylo.Node{Name: name}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), m.D[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 3 {
		r := len(active)
		// Row sums over active taxa.
		sums := make(map[int]float64, r)
		for _, i := range active {
			s := 0.0
			for _, j := range active {
				s += d[i][j]
			}
			sums[i] = s
		}
		// Minimize the Q criterion.
		bi, bj := 0, 1
		bestQ := 0.0
		first := true
		for x := 0; x < r; x++ {
			for y := x + 1; y < r; y++ {
				i, j := active[x], active[y]
				q := float64(r-2)*d[i][j] - sums[i] - sums[j]
				if first || q < bestQ {
					first = false
					bestQ, bi, bj = q, x, y
				}
			}
		}
		i, j := active[bi], active[bj]
		// Branch lengths to the new internal node.
		li := 0.5*d[i][j] + (sums[i]-sums[j])/(2*float64(r-2))
		lj := d[i][j] - li
		if li < 0 {
			li = 0
		}
		if lj < 0 {
			lj = 0
		}
		parent := &phylo.Node{}
		nodes[i].Length = li
		nodes[j].Length = lj
		parent.AddChild(nodes[i])
		parent.AddChild(nodes[j])
		// Distances from the new node (reusing slot i).
		for _, k := range active {
			if k == i || k == j {
				continue
			}
			d[i][k] = 0.5 * (d[i][k] + d[j][k] - d[i][j])
			if d[i][k] < 0 {
				d[i][k] = 0
			}
			d[k][i] = d[i][k]
		}
		nodes[i] = parent
		active = append(active[:bj], active[bj+1:]...)
	}
	// Join the final three around the root.
	root := &phylo.Node{}
	i, j, k := active[0], active[1], active[2]
	nodes[i].Length = maxf(0, 0.5*(d[i][j]+d[i][k]-d[j][k]))
	nodes[j].Length = maxf(0, 0.5*(d[i][j]+d[j][k]-d[i][k]))
	nodes[k].Length = maxf(0, 0.5*(d[i][k]+d[j][k]-d[i][j]))
	root.AddChild(nodes[i])
	root.AddChild(nodes[j])
	root.AddChild(nodes[k])
	t := phylo.New(root)
	t.Reindex()
	return t, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ByNames is the one parser of algorithm names, as a Benchmark Manager
// request gives them: NJ and UPGMA are the distance methods, MP the
// character-based Parsimony on seed, each in upper or lower case. Both kinds
// come back in request order.
func ByNames(names []string, seed int64) ([]Algorithm, []SeqAlgorithm, error) {
	var algs []Algorithm
	var seqAlgs []SeqAlgorithm
	for _, name := range names {
		switch name {
		case "NJ", "nj":
			algs = append(algs, NeighborJoining{})
		case "UPGMA", "upgma":
			algs = append(algs, UPGMA{})
		case "MP", "mp":
			seqAlgs = append(seqAlgs, Parsimony{Seed: seed})
		default:
			return nil, nil, fmt.Errorf("%w %q (have NJ, UPGMA)", ErrUnknownAlgorithm, name)
		}
	}
	return algs, seqAlgs, nil
}
