// Package benchmark implements Crimson's Benchmark Manager (§2.2, Figure
// 3): it "characterizes and evaluates a tree inference algorithm by
// comparing its output to a set of projection trees". A run samples
// species from the gold-standard simulation tree (uniformly or with
// respect to evolutionary time), projects the reference subtree over the
// sample, hands the sampled sequences to each reconstruction algorithm,
// and scores the outputs against the projection with Robinson–Foulds
// distances.
package benchmark

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/recon"
	"repro/internal/sample"
	"repro/internal/seqsim"
	"repro/internal/treecmp"
)

// Selection names a species sampling method.
type Selection int

// Selection methods offered by the paper's demo: random sampling, random
// sampling with respect to time, and user input (handled by RunExplicit).
const (
	Uniform Selection = iota
	TimeConstrained
)

func (s Selection) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case TimeConstrained:
		return "time"
	}
	return fmt.Sprintf("Selection(%d)", int(s))
}

// Config describes a benchmark experiment.
type Config struct {
	Gold  *phylo.Tree // the gold-standard simulation tree (required)
	Index *core.Index // hierarchical index; built with DefaultFanout if nil

	// Sequence source: either a ready alignment covering the gold tree's
	// leaves, or simulation parameters to generate one.
	Alignment *seqsim.Alignment
	SeqLength int          // used when Alignment == nil (default 500)
	Model     seqsim.Model // used when Alignment == nil (default JC69)

	SampleSizes []int     // e.g. {10, 50, 100}
	Replicates  int       // independent samples per size (default 3)
	Method      Selection // sampling method
	Time        float64   // evolutionary time for TimeConstrained

	Algorithms []recon.Algorithm // default {NJ, UPGMA}
	// SeqAlgorithms are character-based methods (e.g. maximum parsimony)
	// evaluated on the sampled sequences directly instead of a distance
	// matrix.
	SeqAlgorithms []recon.SeqAlgorithm
	// Distances converts an alignment subset to a matrix (default JC
	// correction falling back to p-distance on saturation).
	Distances func(*seqsim.Alignment) (*distance.Matrix, error)

	Seed int64 // RNG seed; runs are fully reproducible

	// Parallel is the number of (sample, algorithm-set) evaluations run
	// concurrently (<= 1 means serial). Sampling stays sequential on one
	// RNG, so a run produces identical results at any parallelism level;
	// only the projection/reconstruction/scoring work fans out.
	Parallel int
}

// Result is one (algorithm, sample) evaluation.
type Result struct {
	Algorithm  string
	Method     string
	SampleSize int
	Replicate  int
	RF         int     // unrooted Robinson–Foulds vs the projected reference
	NormRF     float64 // RF scaled to [0,1]
	Recon      time.Duration
	Species    []string // the sampled species names (sorted)
}

// Report is a completed benchmark run.
type Report struct {
	Config  Config
	Results []Result
}

// Errors from Run.
var (
	ErrNoGold = errors.New("benchmark: config has no gold tree")
	ErrNoSize = errors.New("benchmark: no sample sizes configured")
)

// Run executes the benchmark.
func Run(cfg Config) (*Report, error) {
	if cfg.Gold != nil && len(cfg.SampleSizes) == 0 {
		return nil, ErrNoSize // a config without a gold tree is ErrNoGold first
	}
	if cfg.Replicates <= 0 {
		cfg.Replicates = 3
	}
	ru, r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	cfg = ru.cfg

	// Draw every sample first, sequentially on the one seeded RNG, so the
	// selections are identical regardless of cfg.Parallel.
	type job struct {
		sel []*phylo.Node
		rpl int
	}
	var jobs []job
	for _, size := range cfg.SampleSizes {
		for rpl := 0; rpl < cfg.Replicates; rpl++ {
			var sel []*phylo.Node
			var err error
			switch cfg.Method {
			case Uniform:
				sel, err = sample.Uniform(cfg.Gold, size, r)
			case TimeConstrained:
				sel, err = sample.WithRespectToTime(cfg.Gold, cfg.Time, size, r)
			default:
				err = fmt.Errorf("benchmark: unknown selection method %d", cfg.Method)
			}
			if err != nil {
				return nil, fmt.Errorf("benchmark: sampling %d species: %w", size, err)
			}
			jobs = append(jobs, job{sel: sel, rpl: rpl})
		}
	}

	// Evaluate. The run is read-only once built, so evaluations are
	// independent and can fan out across a bounded worker pool.
	perJob := make([][]Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := cfg.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			perJob[i], errs[i] = ru.evaluate(j.sel, j.rpl)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					perJob[i], errs[i] = ru.evaluate(jobs[i].sel, jobs[i].rpl)
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	rep := &Report{Config: cfg}
	for i := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rep.Results = append(rep.Results, perJob[i]...)
	}
	return rep, nil
}

// RunExplicit benchmarks the algorithms on one explicit species selection
// (the paper's "user input" method).
func RunExplicit(cfg Config, names []string) (*Report, error) {
	ru, _, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	sel, err := sample.FromNames(cfg.Gold, names)
	if err != nil {
		return nil, err
	}
	results, err := ru.evaluate(sel, 0)
	if err != nil {
		return nil, err
	}
	return &Report{Config: ru.cfg, Results: results}, nil
}

// run is what every evaluation of one benchmark reads: the config with its
// defaults filled in, the planner over the gold tree, and the alignment. It
// is read-only once built.
type run struct {
	cfg     Config
	planner *project.Planner
	aln     *seqsim.Alignment
}

// newRun is the set-up Run and RunExplicit share: the config's defaults, the
// index and planner over the gold tree, and the alignment. It returns the
// run's one seeded RNG too; an alignment simulated here has drawn from it
// already, and the samples draw from it next.
func newRun(cfg Config) (*run, *rand.Rand, error) {
	if cfg.Gold == nil {
		return nil, nil, ErrNoGold
	}
	// Default algorithms only when the caller named none at all: a config
	// with only SeqAlgorithms (e.g. parsimony alone) runs exactly those.
	if len(cfg.Algorithms) == 0 && len(cfg.SeqAlgorithms) == 0 {
		cfg.Algorithms = []recon.Algorithm{recon.NeighborJoining{}, recon.UPGMA{}}
	}
	if cfg.Distances == nil {
		cfg.Distances = DefaultDistances
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	ix := cfg.Index
	if ix == nil {
		var err error
		if ix, err = core.Build(cfg.Gold, core.DefaultFanout); err != nil {
			return nil, nil, err
		}
	}
	ru := &run{cfg: cfg, planner: project.NewPlanner(cfg.Gold, ix), aln: cfg.Alignment}
	if ru.aln == nil {
		model := cfg.Model
		if model == nil {
			model = seqsim.JC69{}
		}
		length := cfg.SeqLength
		if length <= 0 {
			length = 500
		}
		var err error
		if ru.aln, err = seqsim.Evolve(cfg.Gold, seqsim.Config{Length: length, Model: model}, r); err != nil {
			return nil, nil, fmt.Errorf("benchmark: simulating sequences: %w", err)
		}
	}
	return ru, r, nil
}

func (ru *run) evaluate(sel []*phylo.Node, replicate int) ([]Result, error) {
	cfg := ru.cfg
	reference, err := ru.planner.Project(sel)
	if err != nil {
		return nil, fmt.Errorf("benchmark: projecting reference: %w", err)
	}
	names := make([]string, len(sel))
	for i, n := range sel {
		names[i] = n.Name
	}
	sub, err := ru.aln.Subset(names)
	if err != nil {
		return nil, fmt.Errorf("benchmark: selecting sequences: %w", err)
	}
	m, err := cfg.Distances(sub)
	if err != nil {
		return nil, fmt.Errorf("benchmark: distances: %w", err)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var out []Result
	score := func(name string, tree *phylo.Tree, elapsed time.Duration) error {
		rf, err := treecmp.RobinsonFouldsUnrooted(tree, reference)
		if err != nil {
			return fmt.Errorf("benchmark: scoring %s: %w", name, err)
		}
		norm, err := treecmp.NormalizedRFUnrooted(tree, reference)
		if err != nil {
			return err
		}
		out = append(out, Result{
			Algorithm:  name,
			Method:     cfg.Method.String(),
			SampleSize: len(sel),
			Replicate:  replicate,
			RF:         rf,
			NormRF:     norm,
			Recon:      elapsed,
			Species:    sorted,
		})
		return nil
	}
	for _, alg := range cfg.Algorithms {
		start := time.Now()
		tree, err := alg.Reconstruct(m)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", alg.Name(), err)
		}
		if err := score(alg.Name(), tree, elapsed); err != nil {
			return nil, err
		}
	}
	for _, alg := range cfg.SeqAlgorithms {
		start := time.Now()
		tree, err := alg.ReconstructSeqs(sub)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", alg.Name(), err)
		}
		if err := score(alg.Name(), tree, elapsed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DefaultDistances applies the Jukes–Cantor correction, falling back to
// raw p-distances if any pair is saturated.
func DefaultDistances(aln *seqsim.Alignment) (*distance.Matrix, error) {
	m, err := distance.JC(aln)
	if err == nil {
		return m, nil
	}
	if errors.Is(err, distance.ErrSaturated) {
		return distance.PDistance(aln)
	}
	return nil, err
}

// Summary aggregates mean normalized RF per (algorithm, sample size).
type Summary struct {
	Algorithm  string
	SampleSize int
	Runs       int
	MeanRF     float64
	MeanNormRF float64
	MeanRecon  time.Duration
}

// Summarize groups the report's results.
func (r *Report) Summarize() []Summary {
	type key struct {
		alg  string
		size int
	}
	acc := make(map[key]*Summary)
	var order []key
	for _, res := range r.Results {
		k := key{res.Algorithm, res.SampleSize}
		s, ok := acc[k]
		if !ok {
			s = &Summary{Algorithm: res.Algorithm, SampleSize: res.SampleSize}
			acc[k] = s
			order = append(order, k)
		}
		s.Runs++
		s.MeanRF += float64(res.RF)
		s.MeanNormRF += res.NormRF
		s.MeanRecon += res.Recon
	}
	out := make([]Summary, 0, len(order))
	for _, k := range order {
		s := acc[k]
		s.MeanRF /= float64(s.Runs)
		s.MeanNormRF /= float64(s.Runs)
		s.MeanRecon /= time.Duration(s.Runs)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SampleSize != out[j].SampleSize {
			return out[i].SampleSize < out[j].SampleSize
		}
		return out[i].Algorithm < out[j].Algorithm
	})
	return out
}

// ConfigJSON is the machine-readable summary of a benchmark Config
// (function-valued and tree-valued fields reduced to scalars).
type ConfigJSON struct {
	SampleSizes []int    `json:"sample_sizes"`
	Replicates  int      `json:"replicates"`
	Method      string   `json:"method"`
	Time        float64  `json:"time,omitempty"`
	SeqLength   int      `json:"seq_length"`
	Seed        int64    `json:"seed"`
	Parallel    int      `json:"parallel"`
	Algorithms  []string `json:"algorithms"`
	GoldNodes   int      `json:"gold_nodes"`
	GoldLeaves  int      `json:"gold_leaves"`
}

// ResultJSON is the machine-readable form of one Result.
type ResultJSON struct {
	Algorithm  string   `json:"algorithm"`
	Method     string   `json:"method"`
	SampleSize int      `json:"sample_size"`
	Replicate  int      `json:"replicate"`
	RF         int      `json:"rf"`
	NormRF     float64  `json:"norm_rf"`
	ReconNanos int64    `json:"recon_ns"`
	Species    []string `json:"species"`
}

// SummaryJSON is the machine-readable form of one Summary row.
type SummaryJSON struct {
	Algorithm      string  `json:"algorithm"`
	SampleSize     int     `json:"sample_size"`
	Runs           int     `json:"runs"`
	MeanRF         float64 `json:"mean_rf"`
	MeanNormRF     float64 `json:"mean_norm_rf"`
	MeanReconNanos int64   `json:"mean_recon_ns"`
}

// ReportJSON is a complete benchmark report in machine-readable form —
// the payload of `crimson bench --json` and the server's bench endpoint,
// so a perf trajectory can be captured as BENCH_*.json files.
type ReportJSON struct {
	Config  ConfigJSON    `json:"config"`
	Results []ResultJSON  `json:"results"`
	Summary []SummaryJSON `json:"summary"`
}

// JSON converts the report for marshalling. Config.Gold is summarized by
// size, algorithms by name; durations become integral nanoseconds.
func (r *Report) JSON() ReportJSON {
	cfg := ConfigJSON{
		SampleSizes: r.Config.SampleSizes,
		Replicates:  r.Config.Replicates,
		Method:      r.Config.Method.String(),
		Time:        r.Config.Time,
		SeqLength:   r.Config.SeqLength,
		Seed:        r.Config.Seed,
		Parallel:    r.Config.Parallel,
	}
	if r.Config.Gold != nil {
		cfg.GoldNodes = r.Config.Gold.NumNodes()
		cfg.GoldLeaves = r.Config.Gold.NumLeaves()
	}
	for _, a := range r.Config.Algorithms {
		cfg.Algorithms = append(cfg.Algorithms, a.Name())
	}
	for _, a := range r.Config.SeqAlgorithms {
		cfg.Algorithms = append(cfg.Algorithms, a.Name())
	}
	out := ReportJSON{Config: cfg}
	for _, res := range r.Results {
		out.Results = append(out.Results, ResultJSON{
			Algorithm:  res.Algorithm,
			Method:     res.Method,
			SampleSize: res.SampleSize,
			Replicate:  res.Replicate,
			RF:         res.RF,
			NormRF:     res.NormRF,
			ReconNanos: res.Recon.Nanoseconds(),
			Species:    res.Species,
		})
	}
	for _, s := range r.Summarize() {
		out.Summary = append(out.Summary, SummaryJSON{
			Algorithm:      s.Algorithm,
			SampleSize:     s.SampleSize,
			Runs:           s.Runs,
			MeanRF:         s.MeanRF,
			MeanNormRF:     s.MeanNormRF,
			MeanReconNanos: s.MeanRecon.Nanoseconds(),
		})
	}
	return out
}

// String renders the summary as the table the demo would display.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-8s %-6s %-10s %-10s %s\n", "alg", "k", "runs", "meanRF", "normRF", "recon")
	for _, s := range r.Summarize() {
		fmt.Fprintf(&sb, "%-8s %-8d %-6d %-10.2f %-10.4f %s\n",
			s.Algorithm, s.SampleSize, s.Runs, s.MeanRF, s.MeanNormRF, s.MeanRecon)
	}
	return sb.String()
}
