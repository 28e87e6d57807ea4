// Package sample implements the species-sampling queries of §2.2: uniform
// random sampling of leaves, random sampling *with respect to an
// evolutionary time* (the paper's frontier strategy), and explicit user
// selection. Pick and Draw are the draws themselves, over any element type:
// the stored engine runs them on leaf ids. All randomized functions take a
// *rand.Rand so experiments are reproducible.
package sample

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/phylo"
)

// Errors returned by the samplers.
var (
	ErrBadCount    = errors.New("sample: requested count must be >= 1")
	ErrTooFew      = errors.New("sample: tree has fewer eligible leaves than requested")
	ErrEmptyResult = errors.New("sample: no nodes satisfy the time constraint")
)

// Uniform returns k distinct leaves drawn uniformly at random.
func Uniform(t *phylo.Tree, k int, r *rand.Rand) ([]*phylo.Node, error) {
	if k < 1 {
		return nil, ErrBadCount
	}
	leaves := t.Leaves()
	if len(leaves) < k {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFew, len(leaves), k)
	}
	return Pick(leaves, k, r), nil
}

// Pick draws k distinct elements of s uniformly at random: a partial
// Fisher–Yates shuffle, one r.Intn per element drawn, that moves them to the
// front of s and returns s[:k]. It permutes s in place, so s must be the
// caller's own — never a cached slice such as phylo.Tree.Nodes(). k must be
// in [0, len(s)].
func Pick[T any](s []T, k int, r *rand.Rand) []T {
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
	return s[:k]
}

// Draw is the paper's quota draw over the groups of leaves under the
// frontier nodes: each group gets k/len(groups) draws, the remainder goes to
// groups chosen at random, and a quota above its group's size spills over to
// groups with spare room, chosen at random; then each group is Picked its
// quota. The draws come back group after group. Each group is permuted in
// place. The callers check the request: k >= 1, groups non-empty, and at
// least k elements in all.
func Draw[T any](groups [][]T, k int, r *rand.Rand) []T {
	quota := make([]int, len(groups))
	for i := range quota {
		quota[i] = k / len(groups)
	}
	for _, i := range r.Perm(len(groups))[:k%len(groups)] {
		quota[i]++
	}
	for {
		excess := 0
		for i := range quota {
			if over := quota[i] - len(groups[i]); over > 0 {
				quota[i] = len(groups[i])
				excess += over
			}
		}
		if excess == 0 {
			break
		}
		for _, i := range r.Perm(len(groups)) {
			if excess == 0 {
				break
			}
			if room := len(groups[i]) - quota[i]; room > 0 {
				take := min(room, excess)
				quota[i] += take
				excess -= take
			}
		}
	}
	out := make([]T, 0, k)
	for i, g := range groups {
		out = append(out, Pick(g, quota[i], r)...)
	}
	return out
}

// Frontier returns the maximal nodes whose total weight from the root
// exceeds the given evolutionary time: every node n whose root distance is >
// time whose parent's distance is <= time. This is the node set the
// paper's walkthrough computes (for time 1 on Figure 1 it is {Bha, y, Syn,
// Bsu}, y being the parent of Lla and Spy).
func Frontier(t *phylo.Tree, time float64) []*phylo.Node {
	dist := t.RootDistances()
	var out []*phylo.Node
	for _, n := range t.Nodes() {
		if dist[n] > time && (n.Parent == nil || dist[n.Parent] <= time) {
			out = append(out, n)
		}
	}
	return out
}

// WithRespectToTime samples k species derived from the evolutionary time
// period, following the paper's strategy: find the frontier of nodes whose
// root distance exceeds time, then draw k/|frontier| leaves from the
// subtree under each frontier node. Remainders (and quotas exceeding a
// subtree's leaf count) are redistributed across frontier subtrees with
// spare capacity, chosen at random.
func WithRespectToTime(t *phylo.Tree, time float64, k int, r *rand.Rand) ([]*phylo.Node, error) {
	if k < 1 {
		return nil, ErrBadCount
	}
	frontier := Frontier(t, time)
	if len(frontier) == 0 {
		return nil, fmt.Errorf("%w: time %g", ErrEmptyResult, time)
	}
	groups := make([][]*phylo.Node, len(frontier))
	total := 0
	for i, fn := range frontier {
		groups[i] = subtreeLeaves(fn)
		total += len(groups[i])
	}
	if total < k {
		return nil, fmt.Errorf("%w: %d leaves past time %g < %d", ErrTooFew, total, time, k)
	}
	return Draw(groups, k, r), nil
}

// Names returns the sorted names of the sampled nodes — convenient for
// deterministic test assertions and reports.
func Names(nodes []*phylo.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	sort.Strings(out)
	return out
}

func subtreeLeaves(n *phylo.Node) []*phylo.Node {
	var out []*phylo.Node
	stack := []*phylo.Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.IsLeaf() {
			out = append(out, cur)
			continue
		}
		for i := len(cur.Children) - 1; i >= 0; i-- {
			stack = append(stack, cur.Children[i])
		}
	}
	return out
}
