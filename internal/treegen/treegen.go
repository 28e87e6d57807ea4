// Package treegen generates simulation trees. The paper's gold-standard
// trees come from stochastic branching models ("a branching tree model is
// generated by some method (usually a stochastic model)"); this package
// provides the standard ones — Yule (pure birth) and birth–death — plus
// deterministic pathological shapes (caterpillar, balanced) used to stress
// the labeling schemes on extreme depth. All generators are deterministic
// given the supplied *rand.Rand.
package treegen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/phylo"
)

// errBadParams is returned for invalid generator parameters.
var errBadParams = errors.New("treegen: bad parameters")

// Yule generates an ultrametric pure-birth tree with n extant leaves and
// birth rate lambda. Waiting times between speciations are exponential
// with rate lambda·k for k current lineages; every leaf ends at the same
// distance from the root (evolutionary "now"), which makes time-based
// sampling meaningful.
func Yule(n int, lambda float64, r *rand.Rand) (*phylo.Tree, error) {
	if n < 2 || lambda <= 0 {
		return nil, fmt.Errorf("%w: Yule(n=%d, lambda=%g)", errBadParams, n, lambda)
	}
	root := &phylo.Node{}
	active := []*phylo.Node{root}
	for len(active) < n {
		dt := r.ExpFloat64() / (lambda * float64(len(active)))
		for _, a := range active {
			a.Length += dt
		}
		i := r.Intn(len(active))
		parent := active[i]
		l := &phylo.Node{}
		rn := &phylo.Node{}
		parent.AddChild(l)
		parent.AddChild(rn)
		active[i] = l
		active = append(active, rn)
	}
	// Let the final epoch run so leaves are contemporaneous.
	dt := r.ExpFloat64() / (lambda * float64(len(active)))
	for i, a := range active {
		a.Length += dt
		a.Name = taxonName(i)
	}
	// The root kept accumulating length but has no edge above it.
	root.Length = 0
	t := phylo.New(root)
	t.Reindex()
	return t, nil
}

// BirthDeath generates a tree under a constant-rate birth–death process
// until n extant lineages exist, then prunes extinct lineages (unless
// keepExtinct). If the process dies out it restarts, up to a bounded
// number of attempts.
func BirthDeath(n int, lambda, mu float64, keepExtinct bool, r *rand.Rand) (*phylo.Tree, error) {
	if n < 2 || lambda <= 0 || mu < 0 || mu >= lambda {
		return nil, fmt.Errorf("%w: BirthDeath(n=%d, lambda=%g, mu=%g); need lambda > mu >= 0", errBadParams, n, lambda, mu)
	}
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if t, ok := birthDeathOnce(n, lambda, mu, keepExtinct, r); ok {
			return t, nil
		}
	}
	return nil, fmt.Errorf("treegen: birth-death failed to reach %d extant lineages in %d attempts", n, maxAttempts)
}

func birthDeathOnce(n int, lambda, mu float64, keepExtinct bool, r *rand.Rand) (*phylo.Tree, bool) {
	root := &phylo.Node{}
	active := []*phylo.Node{root}
	extinctCount := 0
	for len(active) < n {
		if len(active) == 0 {
			return nil, false // lineage died out
		}
		k := float64(len(active))
		dt := r.ExpFloat64() / ((lambda + mu) * k)
		for _, a := range active {
			a.Length += dt
		}
		i := r.Intn(len(active))
		if r.Float64() < lambda/(lambda+mu) {
			parent := active[i]
			l := &phylo.Node{}
			rn := &phylo.Node{}
			parent.AddChild(l)
			parent.AddChild(rn)
			active[i] = l
			active = append(active, rn)
		} else {
			active[i].Name = "ext" + itoa(extinctCount)
			extinctCount++
			active = append(active[:i], active[i+1:]...)
		}
	}
	dt := r.ExpFloat64() / ((lambda + mu) * float64(len(active)))
	for i, a := range active {
		a.Length += dt
		a.Name = taxonName(i)
	}
	root.Length = 0
	t := phylo.New(root)
	if !keepExtinct && extinctCount > 0 {
		pruneExtinct(t)
	}
	if t.Root == nil || t.NumLeaves() < n {
		return nil, false
	}
	t.Reindex()
	return t, true
}

// pruneExtinct removes leaves named ext* and suppresses the resulting
// unary chains, keeping edge lengths additive.
func pruneExtinct(t *phylo.Tree) {
	var prune func(n *phylo.Node) *phylo.Node
	prune = func(n *phylo.Node) *phylo.Node {
		if n.IsLeaf() {
			if len(n.Name) >= 3 && n.Name[:3] == "ext" {
				return nil
			}
			return n
		}
		var kept []*phylo.Node
		for _, c := range n.Children {
			if k := prune(c); k != nil {
				kept = append(kept, k)
			}
		}
		n.Children = nil
		for _, k := range kept {
			n.AddChild(k)
		}
		if len(kept) == 0 {
			return nil
		}
		return n
	}
	t.Root = prune(t.Root)
	t.Mutated()
	if t.Root != nil {
		t.SuppressUnary()
		t.Reindex()
	}
}

// Caterpillar builds the maximally deep tree with n cherry levels: each
// interior node has one leaf child and one interior child, giving depth n.
// This is the worst case for plain Dewey labels ("the deepest tree can be
// more than 1 million levels").
func Caterpillar(n int, r *rand.Rand) (*phylo.Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: Caterpillar(n=%d)", errBadParams, n)
	}
	root := &phylo.Node{}
	cur := root
	for i := 0; i < n; i++ {
		leaf := &phylo.Node{Name: taxonName(i), Length: edgeLen(r)}
		next := &phylo.Node{Length: edgeLen(r)}
		cur.AddChild(leaf)
		cur.AddChild(next)
		cur = next
	}
	cur.Name = taxonName(n)
	t := phylo.New(root)
	t.Reindex()
	return t, nil
}

// Balanced builds a complete binary tree of the given depth with random
// edge lengths; it has 2^depth leaves.
func Balanced(depth int, r *rand.Rand) (*phylo.Tree, error) {
	if depth < 1 || depth > 30 {
		return nil, fmt.Errorf("%w: Balanced(depth=%d)", errBadParams, depth)
	}
	leafCount := 0
	var build func(d int) *phylo.Node
	build = func(d int) *phylo.Node {
		n := &phylo.Node{Length: edgeLen(r)}
		if d == 0 {
			n.Name = taxonName(leafCount)
			leafCount++
			return n
		}
		n.AddChild(build(d - 1))
		n.AddChild(build(d - 1))
		return n
	}
	root := build(depth)
	root.Length = 0
	t := phylo.New(root)
	t.Reindex()
	return t, nil
}

// RandomAttach grows a tree by attaching each new node under a uniformly
// random existing node — a quick way to get irregular shapes mixing deep
// chains and bushy regions.
func RandomAttach(n int, r *rand.Rand) (*phylo.Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: RandomAttach(n=%d)", errBadParams, n)
	}
	root := &phylo.Node{}
	nodes := []*phylo.Node{root}
	for len(nodes) < n {
		p := nodes[r.Intn(len(nodes))]
		c := &phylo.Node{Length: edgeLen(r)}
		p.AddChild(c)
		nodes = append(nodes, c)
	}
	i := 0
	for _, nd := range nodes {
		if nd.IsLeaf() {
			nd.Name = taxonName(i)
			i++
		}
	}
	t := phylo.New(root)
	t.Reindex()
	return t, nil
}

func edgeLen(r *rand.Rand) float64 {
	// Exponential lengths with mean 0.1, bounded away from zero so
	// distance corrections stay finite.
	return 0.01 + r.ExpFloat64()*0.1
}

// taxonName produces stable species names: taxon000042.
func taxonName(i int) string {
	return fmt.Sprintf("taxon%06d", i)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// DepthStats reports depth distribution statistics of a tree: min, max and
// mean leaf depth. The paper motivates the hierarchical scheme with
// "simulation phylogenetic trees have an average depth of greater than
// 1000".
func DepthStats(t *phylo.Tree) (min, max int, mean float64) {
	min = math.MaxInt
	count := 0
	depth := make(map[*phylo.Node]int, t.NumNodes())
	for _, n := range t.Nodes() {
		if n.Parent == nil {
			depth[n] = 0
		} else {
			depth[n] = depth[n.Parent] + 1
		}
		if n.IsLeaf() {
			d := depth[n]
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
			mean += float64(d)
			count++
		}
	}
	if count == 0 {
		return 0, 0, 0
	}
	return min, max, mean / float64(count)
}
