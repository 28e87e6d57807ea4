// Package treecmp compares phylogenetic trees: exact topology match, the
// Robinson–Foulds (clade symmetric-difference) distance used to score
// reconstruction algorithms against the gold standard, triplet distance,
// and the linear-time majority-rule consensus the paper cites (reference
// [1], Amenta, Clarke & St. John, WABI 2003). It also implements the tree
// pattern match query of §2.2: project the target tree over the pattern's
// leaves and compare.
package treecmp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/phylo"
	"repro/internal/project"
)

// ErrLeafMismatch is returned when two trees being compared do not share
// the same leaf set.
var ErrLeafMismatch = errors.New("treecmp: trees have different leaf sets")

// Clades returns the set of non-trivial clades (clusters) of a rooted
// tree: for every interior node other than the root, the sorted set of
// leaf names below it, encoded as a canonical string key.
func Clades(t *phylo.Tree) map[string]bool {
	out := make(map[string]bool)
	var walk func(n *phylo.Node) []string
	walk = func(n *phylo.Node) []string {
		if n.IsLeaf() {
			return []string{n.Name}
		}
		var names []string
		for _, c := range n.Children {
			names = append(names, walk(c)...)
		}
		sort.Strings(names)
		if n.Parent != nil && len(names) >= 2 {
			out[strings.Join(names, "\x00")] = true
		}
		return names
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

// RobinsonFoulds returns the Robinson–Foulds distance between two rooted
// trees over the same leaf set: the size of the symmetric difference of
// their clade sets. Lower is more similar; 0 means identical topology
// (ignoring edge lengths and child order).
func RobinsonFoulds(a, b *phylo.Tree) (int, error) {
	d, _, err := symDiff(a, b, Clades)
	return d, err
}

// NormalizedRF returns RF scaled into [0,1] by the maximum possible
// distance (the total number of non-trivial clades in both trees). Two
// identical topologies score 0; trees sharing no clades score 1.
func NormalizedRF(a, b *phylo.Tree) (float64, error) {
	d, total, err := symDiff(a, b, Clades)
	return normalized(d, total), err
}

// symDiff is the size of the symmetric difference of the two trees' clade
// or split sets, and the size of both sets together.
func symDiff(a, b *phylo.Tree, sets func(*phylo.Tree) map[string]bool) (d, total int, err error) {
	if !sameLeafSet(a, b) {
		return 0, 0, ErrLeafMismatch
	}
	sa, sb := sets(a), sets(b)
	for k := range sa {
		if !sb[k] {
			d++
		}
	}
	for k := range sb {
		if !sa[k] {
			d++
		}
	}
	return d, len(sa) + len(sb), nil
}

// normalized scales a symmetric difference by the most it could be.
func normalized(d, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(d) / float64(total)
}

func sameLeafSet(a, b *phylo.Tree) bool {
	la, lb := a.LeafNames(), b.LeafNames()
	if len(la) != len(lb) {
		return false
	}
	set := make(map[string]bool, len(la))
	for _, n := range la {
		set[n] = true
	}
	for _, n := range lb {
		if !set[n] {
			return false
		}
	}
	return true
}

// Bipartitions returns the non-trivial bipartitions (splits) induced by
// the internal edges of a tree, viewed as unrooted. Each split is encoded
// canonically as the sorted leaf names of the side NOT containing the
// lexicographically smallest leaf. The edge above a clade splits it from the
// rest of the leaves, so the splits are the clades with two or more leaves
// outside them, seen from the side away from that leaf.
func Bipartitions(t *phylo.Tree) map[string]bool {
	all := t.LeafNames()
	if len(all) < 4 {
		return map[string]bool{}
	}
	ref := slices.Min(all)
	out := make(map[string]bool)
	for c := range Clades(t) {
		side := strings.Split(c, "\x00")
		if len(all)-len(side) < 2 {
			continue
		}
		if slices.Contains(side, ref) {
			side = complement(all, side)
			sort.Strings(side)
		}
		out[strings.Join(side, "\x00")] = true
	}
	return out
}

func complement(all, side []string) []string {
	in := make(map[string]bool, len(side))
	for _, s := range side {
		in[s] = true
	}
	var out []string
	for _, a := range all {
		if !in[a] {
			out = append(out, a)
		}
	}
	return out
}

// RobinsonFouldsUnrooted is the symmetric difference of the two trees'
// split sets — the standard score for algorithms (like Neighbor-Joining)
// whose output rooting is arbitrary.
func RobinsonFouldsUnrooted(a, b *phylo.Tree) (int, error) {
	d, _, err := symDiff(a, b, Bipartitions)
	return d, err
}

// NormalizedRFUnrooted scales the unrooted RF distance into [0,1].
func NormalizedRFUnrooted(a, b *phylo.Tree) (float64, error) {
	d, total, err := symDiff(a, b, Bipartitions)
	return normalized(d, total), err
}

// MatchResult reports the outcome of a tree pattern match.
type MatchResult struct {
	Exact      bool    // projected tree and pattern are topologically equal
	RF         int     // Robinson–Foulds distance between them
	Normalized float64 // RF scaled to [0,1]
	Projected  *phylo.Tree
}

// PatternMatch answers the paper's tree pattern match query: determine the
// leaves of the pattern, project the target tree over that leaf set, then
// check whether the projected tree equals the pattern (exact match) or
// compute the difference as a similarity measure (approximate match).
// Topology only; edge lengths are not compared.
func PatternMatch(planner *project.Planner, pattern *phylo.Tree) (*MatchResult, error) {
	projected, err := planner.ProjectNames(pattern.LeafNames())
	if err != nil {
		return nil, fmt.Errorf("treecmp: projecting pattern leaves: %w", err)
	}
	return Score(projected, pattern)
}

// Score is the comparison half of the pattern match, for a projection made by
// either query engine: the rooted RF distance between the projection and the
// pattern, normalized, and whether it is zero.
func Score(projected, pattern *phylo.Tree) (*MatchResult, error) {
	rf, total, err := symDiff(projected, pattern, Clades)
	if err != nil {
		return nil, err
	}
	return &MatchResult{Exact: rf == 0, RF: rf, Normalized: normalized(rf, total), Projected: projected}, nil
}

// TripletDistance counts resolved leaf triplets on which the two trees
// disagree, divided by the total number of triplets. It is O(k^3) in the
// number of leaves and intended for the modest sample sizes the benchmark
// manager works with.
func TripletDistance(a, b *phylo.Tree) (float64, error) {
	if !sameLeafSet(a, b) {
		return 0, ErrLeafMismatch
	}
	names := a.LeafNames()
	sort.Strings(names)
	if len(names) < 3 {
		return 0, nil
	}
	disagree, total := 0, 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			for k := j + 1; k < len(names); k++ {
				ra := resolveTriplet(a, names[i], names[j], names[k])
				rb := resolveTriplet(b, names[i], names[j], names[k])
				total++
				if ra != rb {
					disagree++
				}
			}
		}
	}
	return float64(disagree) / float64(total), nil
}

// resolveTriplet returns which pair of {x,y,z} is closest (joined below
// the triplet's root): 0 for xy, 1 for xz, 2 for yz, 3 for unresolved.
func resolveTriplet(t *phylo.Tree, x, y, z string) int {
	nx, ny, nz := t.NodeByName(x), t.NodeByName(y), t.NodeByName(z)
	lxy := phylo.LCA(nx, ny)
	lxz := phylo.LCA(nx, nz)
	lyz := phylo.LCA(ny, nz)
	dxy, dxz, dyz := phylo.Depth(lxy), phylo.Depth(lxz), phylo.Depth(lyz)
	switch {
	case dxy > dxz && dxy > dyz:
		return 0
	case dxz > dxy && dxz > dyz:
		return 1
	case dyz > dxy && dyz > dxz:
		return 2
	}
	return 3
}

// MajorityConsensus builds the majority-rule consensus of the given trees
// (all over the same leaf set): the tree containing exactly the clades
// that occur in more than half of the inputs (reference [1] of the
// paper). Edge lengths of the consensus are left at zero.
func MajorityConsensus(trees []*phylo.Tree) (*phylo.Tree, error) {
	if len(trees) == 0 {
		return nil, errors.New("treecmp: consensus of zero trees")
	}
	for _, t := range trees[1:] {
		if !sameLeafSet(trees[0], t) {
			return nil, ErrLeafMismatch
		}
	}
	counts := make(map[string]int)
	for _, t := range trees {
		for c := range Clades(t) {
			counts[c]++
		}
	}
	var majority [][]string
	for c, n := range counts {
		if 2*n > len(trees) {
			majority = append(majority, strings.Split(c, "\x00"))
		}
	}
	// Majority clades are pairwise compatible, so ordering by decreasing
	// size lets us build the tree by inserting each clade under the
	// smallest enclosing one.
	sort.Slice(majority, func(i, j int) bool { return len(majority[i]) > len(majority[j]) })

	names := trees[0].LeafNames()
	sort.Strings(names)
	root := &phylo.Node{}
	owner := make(map[string]*phylo.Node) // leaf name -> current deepest node
	for _, n := range names {
		owner[n] = root
	}
	for _, clade := range majority {
		parent := owner[clade[0]]
		node := &phylo.Node{}
		parent.AddChild(node)
		for _, leaf := range clade {
			if owner[leaf] != parent {
				return nil, fmt.Errorf("treecmp: incompatible majority clades (leaf %s)", leaf)
			}
			owner[leaf] = node
		}
	}
	for _, name := range names {
		owner[name].AddChild(&phylo.Node{Name: name})
	}
	t := phylo.New(root)
	t.SortChildren()
	t.Reindex()
	return t, nil
}
