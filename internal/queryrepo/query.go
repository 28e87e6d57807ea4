package queryrepo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/benchmark"
	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/recon"
	"repro/internal/treecmp"
	"repro/internal/treestore"
)

// Query is one recorded operation: an LCA, Project, Clade, Sample, Match,
// Bench, Load or Delete value. Its JSON encoding is the entry's args, and
// Entry.Query decodes it back. Each struct declares its fields in
// alphabetical tag order, so the encoding is the one a map of the same
// keys had.
type Query interface {
	Kind() string     // the entry's kind
	TreeName() string // the tree it reads or writes
}

// LCA asks for the least common ancestor of species A and B.
type LCA struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Tree string `json:"tree"`
}

// Project asks for the tree's projection over Species.
type Project struct {
	Species []string `json:"species"`
	Tree    string   `json:"tree"`
}

// Clade asks for the minimal spanning clade of Species.
type Clade struct {
	Species []string `json:"species"`
	Tree    string   `json:"tree"`
}

// Sample draws K species on a source seeded with Seed: with respect to
// time when Time >= 0, uniformly otherwise.
type Sample struct {
	K    int     `json:"k"`
	Seed int64   `json:"seed"`
	Time float64 `json:"time"`
	Tree string  `json:"tree"`
}

// Match compares the tree's projection over Pattern's leaves with Pattern,
// a Newick string as newick.String writes it.
type Match struct {
	Pattern string `json:"pattern"`
	Tree    string `json:"tree"`
}

// Bench runs the Benchmark Manager against the tree: Reps samples of each
// size in Sizes (time-constrained when Time >= 0), SeqLength simulated
// sites, algorithms Algs, all drawn from Seed. These are the values its
// report depends on; the worker count is not one of them.
type Bench struct {
	Algs      []string `json:"algs"`
	Reps      int      `json:"reps"`
	Seed      int64    `json:"seed"`
	SeqLength int      `json:"seq_length"`
	Sizes     []int    `json:"sizes"`
	Time      float64  `json:"time"`
	Tree      string   `json:"tree"`
}

// Load records a tree load of Nodes nodes at depth bound F.
type Load struct {
	F     int    `json:"f"`
	Nodes int    `json:"nodes"`
	Tree  string `json:"tree"`
}

// Delete records a tree deletion.
type Delete struct {
	Tree string `json:"tree"`
}

func (LCA) Kind() string     { return "lca" }
func (Project) Kind() string { return "project" }
func (Clade) Kind() string   { return "clade" }
func (Sample) Kind() string  { return "sample" }
func (Match) Kind() string   { return "match" }
func (Bench) Kind() string   { return "bench" }
func (Load) Kind() string    { return "load" }
func (Delete) Kind() string  { return "delete" }

func (q LCA) TreeName() string     { return q.Tree }
func (q Project) TreeName() string { return q.Tree }
func (q Clade) TreeName() string   { return q.Tree }
func (q Sample) TreeName() string  { return q.Tree }
func (q Match) TreeName() string   { return q.Tree }
func (q Bench) TreeName() string   { return q.Tree }
func (q Load) TreeName() string    { return q.Tree }
func (q Delete) TreeName() string  { return q.Tree }

var (
	errNoSeed = errors.New("a bench entry without its seed cannot be rerun")
	errNoTree = errors.New("the entry does not name its tree")
)

// Query decodes the entry's args into the value that was recorded. It reads
// every shape a past version wrote, bench's algs as a string or a list
// included, and fails for a value it cannot rerun as recorded: an unknown
// kind, a record without its tree, or a bench run without its seed. It
// fills in no default.
func (e Entry) Query() (Query, error) {
	var q Query
	err := fmt.Errorf("unknown query kind %q", e.Kind)
	if dec, ok := decoders[e.Kind]; ok {
		q, err = dec(e.Args)
	}
	if err == nil && q.TreeName() == "" {
		err = errNoTree
	}
	if err != nil {
		return nil, fmt.Errorf("queryrepo: entry #%d (%s): %w", e.ID, e.Kind, err)
	}
	return q, nil
}

var decoders = map[string]func(args string) (Query, error){
	"lca": decode[LCA], "project": decode[Project], "clade": decode[Clade], "sample": decode[Sample],
	"match": decode[Match], "bench": decodeBench, "load": decode[Load], "delete": decode[Delete],
}

func decode[T Query](args string) (Query, error) {
	var v T
	err := json.Unmarshal([]byte(args), &v)
	return v, err
}

// decodeBench reads a bench record. The CLI once wrote algs as the --alg
// flag's comma-joined string and crimsond as a list; neither wrote a seed.
func decodeBench(args string) (Query, error) {
	var raw struct {
		Bench
		Algs json.RawMessage `json:"algs"`
		Seed *int64          `json:"seed"`
	}
	err := json.Unmarshal([]byte(args), &raw)
	b := raw.Bench
	if err == nil && len(raw.Algs) > 0 && raw.Algs[0] == '"' {
		var joined string
		err = json.Unmarshal(raw.Algs, &joined)
		b.Algs = strings.Split(joined, ",")
	} else if err == nil && len(raw.Algs) > 0 {
		err = json.Unmarshal(raw.Algs, &b.Algs)
	}
	if err == nil && raw.Seed == nil {
		err = errNoSeed
	}
	if err != nil {
		return nil, err
	}
	b.Seed = *raw.Seed
	return b, nil
}

// Canonical is q in the form the result cache keys it by: species sorted
// and the LCA pair ordered. Queries with one canonical form have one
// answer. A Match pattern is canonical as recorded, re-serialised.
func Canonical(q Query) Query {
	switch v := q.(type) {
	case LCA:
		if v.A > v.B {
			v.A, v.B = v.B, v.A
		}
		return v
	case Project:
		v.Species = slices.Sorted(slices.Values(v.Species))
		return v
	case Clade:
		v.Species = slices.Sorted(slices.Values(v.Species))
		return v
	}
	return q
}

// Each read kind has one Run: it answers the query on a stored tree and
// returns the result and the summary its history entry keeps.

// Run returns the LCA node.
func (q LCA) Run(ctx context.Context, t *treestore.Tree) (treestore.Node, string, error) {
	n, err := t.LCANamesCtx(ctx, q.A, q.B)
	if err != nil {
		return treestore.Node{}, "", err
	}
	return n, fmt.Sprintf("node %d", n.ID), nil
}

// Run returns the projection; the summary is its Newick string.
func (q Project) Run(ctx context.Context, t *treestore.Tree) (*phylo.Tree, string, error) {
	p, err := t.ProjectNamesCtx(ctx, q.Species)
	if err != nil {
		return nil, "", err
	}
	return p, newick.String(p), nil
}

// Run returns the clade's nodes, its root first, and its leaf names sorted.
func (q Clade) Run(ctx context.Context, t *treestore.Tree) ([]treestore.Node, []string, string, error) {
	nodes, err := t.CladeNamesCtx(ctx, q.Species)
	if err != nil {
		return nil, nil, "", err
	}
	var leaves []string
	for _, n := range nodes {
		if n.Leaf {
			leaves = append(leaves, n.Name)
		}
	}
	sort.Strings(leaves)
	return nodes, leaves, fmt.Sprintf("%d nodes", len(nodes)), nil
}

// Run returns the sampled species' names, sorted.
func (q Sample) Run(ctx context.Context, t *treestore.Tree) ([]string, string, error) {
	rng := rand.New(rand.NewSource(q.Seed))
	var rows []treestore.Node
	var err error
	if q.Time >= 0 {
		rows, err = t.SampleWithTimeCtx(ctx, q.Time, q.K, rng)
	} else {
		rows, err = t.SampleUniformCtx(ctx, q.K, rng)
	}
	if err != nil {
		return nil, "", err
	}
	names := make([]string, len(rows))
	for i, n := range rows {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names, strings.Join(names, " "), nil
}

// Run returns the projection over the pattern's leaves scored against it.
// pattern is q.Pattern parsed: the caller has parsed it already, to check it
// and to write it canonically.
func (q Match) Run(ctx context.Context, t *treestore.Tree, pattern *phylo.Tree) (*treecmp.MatchResult, string, error) {
	projected, err := t.ProjectNamesCtx(ctx, pattern.LeafNames())
	if err != nil {
		return nil, "", err
	}
	m, err := treecmp.Score(projected, pattern)
	if err != nil {
		return nil, "", err
	}
	return m, fmt.Sprintf("RF=%d", m.RF), nil
}

// Defaults returns q with the Benchmark Manager's defaults filled in:
// 3 replicates, 500 sites, NJ and UPGMA.
func (q Bench) Defaults() Bench {
	if q.Reps <= 0 {
		q.Reps = 3
	}
	if q.SeqLength <= 0 {
		q.SeqLength = 500
	}
	if len(q.Algs) == 0 {
		q.Algs = []string{"NJ", "UPGMA"}
	}
	return q
}

// Run exports the gold tree from t, calls exported (if not nil) once the
// store is read no more, and runs the benchmark on the copy with parallel
// concurrent evaluations.
func (q Bench) Run(ctx context.Context, t *treestore.Tree, parallel int, exported func()) (*benchmark.Report, string, error) {
	gold, err := t.ExportCtx(ctx)
	if exported != nil {
		exported()
	}
	if err != nil {
		return nil, "", err
	}
	rep, err := q.RunGold(gold, parallel)
	return rep, "benchmark complete", err
}

// RunGold runs the benchmark on an in-memory gold tree.
func (q Bench) RunGold(gold *phylo.Tree, parallel int) (*benchmark.Report, error) {
	cfg := benchmark.Config{
		Gold:        gold,
		SeqLength:   q.SeqLength,
		SampleSizes: q.Sizes,
		Replicates:  q.Reps,
		Seed:        q.Seed,
		Parallel:    parallel,
	}
	var err error
	if cfg.Algorithms, cfg.SeqAlgorithms, err = recon.ByNames(q.Algs, q.Seed); err != nil {
		return nil, err
	}
	if q.Time >= 0 {
		cfg.Method = benchmark.TimeConstrained
		cfg.Time = q.Time
	}
	return benchmark.Run(cfg)
}
