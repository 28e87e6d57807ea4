// Command crimson is the command-line interface to the Crimson system —
// the scripting surface the paper provides via Python. It exposes loading,
// sampling, projection, structure queries, benchmarking, query history and
// tree viewing over a repository page file.
//
// Usage:
//
//	crimson <command> [flags]
//
// Commands: gen, seqgen, load, trees, info, lca, clade, sample, project,
// match, bench, history, view, help.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	crimson "repro"
	"repro/internal/benchmark"
	"repro/internal/recon"
	"repro/internal/seqsim"
	"repro/internal/treegen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crimson:", err)
		os.Exit(1)
	}
}

type command struct {
	name, help string
	fn         func(args []string) error
}

var commands []command

func init() {
	commands = []command{
		{"gen", "generate a gold-standard simulation tree (Newick to stdout or --out)", cmdGen},
		{"seqgen", "simulate sequence evolution along a tree (NEXUS output)", cmdSeqGen},
		{"load", "load a Newick/NEXUS tree (and sequences) into a repository", cmdLoad},
		{"trees", "list trees in a repository", cmdTrees},
		{"info", "show a stored tree's decomposition statistics", cmdInfo},
		{"lca", "least common ancestor of two species", cmdLCA},
		{"clade", "minimal spanning clade of a species set", cmdClade},
		{"sample", "sample species uniformly or with respect to time", cmdSample},
		{"project", "project the stored tree over a species set", cmdProject},
		{"export", "stream a stored tree as Newick to stdout (or --out)", cmdExport},
		{"match", "tree pattern match against a stored tree", cmdMatch},
		{"bench", "benchmark reconstruction algorithms against a stored gold tree", cmdBench},
		{"history", "show the query history", cmdHistory},
		{"rerun", "re-execute a query from the history by id", cmdRerun},
		{"view", "render a Newick file as ascii/dot/libsea/nexus", cmdView},
		{"fsck", "verify the integrity of a repository's trees and indexes", cmdFsck},
		{"serve", "serve the repository over HTTP (crimsond)", cmdServe},
		{"promote", "promote a follower crimsond to writable primary", cmdPromote},
	}
}

func run(args []string) error {
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" || args[0] == "--help" {
		usage()
		return nil
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.fn(args[1:])
		}
	}
	usage()
	return fmt.Errorf("unknown command %q", args[0])
}

func usage() {
	fmt.Println("crimson — data management for evaluating phylogenetic tree reconstruction (VLDB 2006 reproduction)")
	fmt.Println("\ncommands:")
	for _, c := range commands {
		fmt.Printf("  %-8s %s\n", c.name, c.help)
	}
}

// signalContext returns a context cancelled by SIGINT/SIGTERM, so a
// long-running query command aborts its engine scans cleanly on Ctrl-C
// instead of dying mid-write. Callers defer stop.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func outWriter(path string) (*os.File, func(), error) {
	if path == "" || path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	model := fs.String("model", "yule", "yule | bd | caterpillar | balanced")
	n := fs.Int("n", 1000, "number of leaves (or depth for balanced)")
	lambda := fs.Float64("lambda", 1.0, "birth rate")
	mu := fs.Float64("mu", 0.3, "death rate (bd only)")
	keepExtinct := fs.Bool("keep-extinct", false, "keep extinct lineages (bd only)")
	seed := fs.Int64("seed", 1, "RNG seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(*seed))
	var t *crimson.Tree
	var err error
	switch *model {
	case "yule":
		t, err = treegen.Yule(*n, *lambda, r)
	case "bd":
		t, err = treegen.BirthDeath(*n, *lambda, *mu, *keepExtinct, r)
	case "caterpillar":
		t, err = treegen.Caterpillar(*n, r)
	case "balanced":
		t, err = treegen.Balanced(*n, r)
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		return err
	}
	w, done, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer done()
	fmt.Fprintln(w, crimson.FormatNewick(t))
	minD, maxD, meanD := treegen.DepthStats(t)
	fmt.Fprintf(os.Stderr, "generated %d nodes, %d leaves, depth min/mean/max = %d/%.1f/%d\n",
		t.NumNodes(), t.NumLeaves(), minD, meanD, maxD)
	return nil
}

func cmdSeqGen(args []string) error {
	fs := flag.NewFlagSet("seqgen", flag.ContinueOnError)
	treeFile := fs.String("tree", "", "Newick tree file (required)")
	length := fs.Int("len", 500, "sequence length")
	model := fs.String("model", "jc", "jc | k2p | hky")
	kappa := fs.Float64("kappa", 2.0, "transition/transversion ratio")
	gamma := fs.Float64("gamma", 0, "gamma shape alpha (0 = uniform rates)")
	seed := fs.Int64("seed", 1, "RNG seed")
	out := fs.String("out", "", "output NEXUS file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *treeFile == "" {
		return fmt.Errorf("seqgen: --tree is required")
	}
	t, err := crimson.ReadNewickFile(*treeFile)
	if err != nil {
		return err
	}
	var m crimson.Model
	switch *model {
	case "jc":
		m = seqsim.JC69{}
	case "k2p":
		m = seqsim.K2P{Kappa: *kappa}
	case "hky":
		m = seqsim.HKY85{Kappa: *kappa, BaseFreqs: [4]float64{0.3, 0.2, 0.2, 0.3}}
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	aln, err := crimson.SimulateSequences(t, crimson.SeqConfig{Length: *length, Model: m, GammaAlpha: *gamma},
		rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	doc := &crimson.NexusDocument{Taxa: aln.Names, Characters: aln.Characters()}
	doc.Trees = append(doc.Trees, crimson.NamedTree{Name: "sim", Rooted: true, Tree: t})
	w, done, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer done()
	return crimson.WriteNexus(w, doc)
}

// openRepo opens a repository, auto-detecting its layout: a plain page
// file opens single-sharded, a directory with a shard manifest opens with
// the manifest's shard count.
func openRepo(path string) (*crimson.Repository, error) {
	return openRepoSharded(path, 0)
}

// openRepoSharded opens (creating if needed) a repository with the given
// shard count; 0 means auto-detect. Mismatches against an existing layout
// are rejected.
func openRepoSharded(path string, shards int) (*crimson.Repository, error) {
	if path == "" {
		return nil, fmt.Errorf("--repo is required")
	}
	return crimson.OpenSharded(path, shards)
}

// openStored opens the repository at path and the named tree as of a
// snapshot of it; done closes both.
func openStored(path, name string) (repo *crimson.Repository, st *crimson.StoredTree, done func(), err error) {
	if repo, err = openRepo(path); err != nil {
		return nil, nil, nil, err
	}
	snap := repo.Snapshot()
	done = func() {
		snap.Close()
		repo.Close()
	}
	if st, err = snap.Tree(name); err != nil {
		done()
		return nil, nil, nil, err
	}
	return repo, st, done, nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file (1 shard) or directory (sharded)")
	shards := fs.Int("shards", 0, "shard count when creating the repository (0 = auto-detect; >1 makes a sharded directory layout)")
	name := fs.String("name", "", "tree name (default: NEXUS tree name or 'tree')")
	f := fs.Int("f", crimson.DefaultFanout, "hierarchical label depth bound")
	newickFile := fs.String("newick", "", "Newick input file")
	nexusFile := fs.String("nexus", "", "NEXUS input file (loads sequences too)")
	loadWorkers := fs.Int("load-workers", 0, "ingest pipeline fan-out: parse and staging workers (0 = GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress progress messages")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepoSharded(*repoPath, *shards)
	if err != nil {
		return err
	}
	defer repo.Close()
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, msg)
		}
	}
	switch {
	case *nexusFile != "":
		fh, err := os.Open(*nexusFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		doc, err := crimson.ParseNexus(fh)
		if err != nil {
			return err
		}
		st, err := repo.LoadNexusOpts(doc, *name, *f, crimson.LoadOptions{Workers: *loadWorkers}, progress)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %q: %d nodes, %d leaves, %d layers\n",
			st.Info().Name, st.Info().Nodes, st.Info().Leaves, st.Info().Layers)
	case *newickFile != "":
		raw, err := os.ReadFile(*newickFile)
		if err != nil {
			return err
		}
		t, err := crimson.ParseNewickWorkers(string(raw), *loadWorkers)
		if err != nil {
			return err
		}
		if *name == "" {
			*name = "tree"
		}
		st, err := repo.LoadTreeOpts(*name, t, *f, crimson.LoadOptions{Workers: *loadWorkers}, progress)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %q: %d nodes, %d leaves, %d layers\n",
			*name, st.Info().Nodes, st.Info().Leaves, st.Info().Layers)
	default:
		return fmt.Errorf("load: one of --newick or --nexus is required")
	}
	return nil
}

func cmdTrees(args []string) error {
	fs := flag.NewFlagSet("trees", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepo(*repoPath)
	if err != nil {
		return err
	}
	defer repo.Close()
	snap := repo.Snapshot()
	defer snap.Close()
	infos, err := snap.Trees()
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %10s %10s %4s %7s %7s\n", "name", "nodes", "leaves", "f", "layers", "depth")
	for _, i := range infos {
		fmt.Printf("%-20s %10d %10d %4d %7d %7d\n", i.Name, i.Nodes, i.Leaves, i.F, i.Layers, i.Depth)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, st, done, err := openStored(*repoPath, *name)
	if err != nil {
		return err
	}
	defer done()
	i := st.Info()
	fmt.Printf("tree %q\n  nodes: %d\n  leaves: %d\n  depth: %d\n  depth bound f: %d\n  layers: %d\n",
		i.Name, i.Nodes, i.Leaves, i.Depth, i.F, i.Layers)
	return nil
}

func splitSpecies(s string) []string {
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func cmdLCA(args []string) error {
	fs := flag.NewFlagSet("lca", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	speciesArg := fs.String("species", "", "two species names, comma separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := splitSpecies(*speciesArg)
	if len(names) != 2 {
		return fmt.Errorf("lca: --species needs exactly two names")
	}
	ctx, stop := signalContext()
	defer stop()
	repo, st, done, err := openStored(*repoPath, *name)
	if err != nil {
		return err
	}
	defer done()
	lrow, err := st.LCANamesCtx(ctx, names[0], names[1])
	if err != nil {
		return err
	}
	label := lrow.Name
	if label == "" {
		label = fmt.Sprintf("interior node %d", lrow.ID)
	}
	fmt.Printf("LCA(%s, %s) = %s (depth %d, time %g)\n", names[0], names[1], label, lrow.Depth, lrow.Dist)
	_, _ = repo.Queries.Record("lca",
		map[string]any{"tree": *name, "a": names[0], "b": names[1]},
		fmt.Sprintf("node %d", lrow.ID))
	return repo.Commit()
}

func cmdClade(args []string) error {
	fs := flag.NewFlagSet("clade", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	speciesArg := fs.String("species", "", "species names, comma separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := splitSpecies(*speciesArg)
	if len(names) == 0 {
		return fmt.Errorf("clade: --species is required")
	}
	ctx, stop := signalContext()
	defer stop()
	repo, st, done, err := openStored(*repoPath, *name)
	if err != nil {
		return err
	}
	defer done()
	clade, err := st.CladeNamesCtx(ctx, names)
	if err != nil {
		return err
	}
	leaves := 0
	var leafNames []string
	for _, n := range clade {
		if n.Leaf {
			leaves++
			leafNames = append(leafNames, n.Name)
		}
	}
	sort.Strings(leafNames)
	fmt.Printf("minimal spanning clade: %d nodes, %d leaves\n", len(clade), leaves)
	if leaves <= 50 {
		fmt.Println(strings.Join(leafNames, " "))
	}
	_, _ = repo.Queries.Record("clade", map[string]any{"tree": *name, "species": names},
		fmt.Sprintf("%d nodes", len(clade)))
	return repo.Commit()
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	k := fs.Int("k", 10, "number of species")
	timeArg := fs.Float64("time", -1, "evolutionary time constraint (negative = uniform)")
	seed := fs.Int64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	repo, st, done, err := openStored(*repoPath, *name)
	if err != nil {
		return err
	}
	defer done()
	r := rand.New(rand.NewSource(*seed))
	var rows []crimson.StoredNode
	if *timeArg >= 0 {
		rows, err = st.SampleWithTimeCtx(ctx, *timeArg, *k, r)
	} else {
		rows, err = st.SampleUniformCtx(ctx, *k, r)
	}
	if err != nil {
		return err
	}
	var names []string
	for _, n := range rows {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	fmt.Println(strings.Join(names, " "))
	_, _ = repo.Queries.Record("sample",
		map[string]any{"tree": *name, "k": *k, "time": *timeArg, "seed": *seed},
		strings.Join(names, " "))
	return repo.Commit()
}

func cmdProject(args []string) error {
	fs := flag.NewFlagSet("project", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	speciesArg := fs.String("species", "", "species names, comma separated")
	format := fs.String("format", "newick", "newick | ascii")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := splitSpecies(*speciesArg)
	if len(names) == 0 {
		return fmt.Errorf("project: --species is required")
	}
	ctx, stop := signalContext()
	defer stop()
	repo, st, done, err := openStored(*repoPath, *name)
	if err != nil {
		return err
	}
	defer done()
	t, err := st.ProjectNamesCtx(ctx, names)
	if err != nil {
		return err
	}
	switch *format {
	case "ascii":
		fmt.Print(crimson.ASCII(t))
	default:
		fmt.Println(crimson.FormatNewick(t))
	}
	_, _ = repo.Queries.Record("project", map[string]any{"tree": *name, "species": names},
		crimson.FormatNewick(t))
	return repo.Commit()
}

// cmdExport streams a stored tree's Newick serialization to stdout (or
// --out) without materializing the tree or its text: one relation scan
// feeds the chunked emitter, so exporting a multi-million-node tree runs
// in constant memory and Ctrl-C aborts it mid-scan.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("export: --name is required")
	}
	ctx, stop := signalContext()
	defer stop()
	repo, err := openRepo(*repoPath)
	if err != nil {
		return err
	}
	defer repo.Close()
	snap, err := repo.SnapshotCtx(ctx)
	if err != nil {
		return err
	}
	defer snap.Close()
	st, err := snap.Tree(*name)
	if err != nil {
		return err
	}
	w, done, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer done()
	if err := st.ExportNewickTo(ctx, w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	name := fs.String("name", "", "tree name")
	patternFile := fs.String("pattern", "", "Newick pattern file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *patternFile == "" {
		return fmt.Errorf("match: --pattern is required")
	}
	repo, st, done, err := openStored(*repoPath, *name)
	if err != nil {
		return err
	}
	defer done()
	pattern, err := crimson.ReadNewickFile(*patternFile)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	projected, err := st.ProjectNamesCtx(ctx, pattern.LeafNames())
	if err != nil {
		return err
	}
	rf, err := crimson.RobinsonFoulds(projected, pattern)
	if err != nil {
		return err
	}
	if rf == 0 {
		fmt.Println("MATCH (projection equals pattern)")
	} else {
		fmt.Printf("NO MATCH (Robinson-Foulds distance %d)\n", rf)
	}
	_, _ = repo.Queries.Record("match", map[string]any{"tree": *name, "pattern": crimson.FormatNewick(pattern)},
		fmt.Sprintf("RF=%d", rf))
	return repo.Commit()
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file (optional; uses --gold otherwise)")
	name := fs.String("name", "", "stored tree name (with --repo)")
	goldFile := fs.String("gold", "", "Newick gold tree file (without --repo)")
	sizes := fs.String("sizes", "10,50,100", "sample sizes, comma separated")
	reps := fs.Int("reps", 3, "replicates per size")
	algs := fs.String("alg", "NJ,UPGMA", "algorithms, comma separated")
	seqLen := fs.Int("len", 500, "simulated sequence length")
	timeArg := fs.Float64("time", -1, "time-constrained sampling (negative = uniform)")
	seed := fs.Int64("seed", 1, "RNG seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "concurrent replicate evaluations (1 = serial; results are identical either way)")
	jsonOut := fs.String("json", "", "write the report as JSON to this file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var gold *crimson.Tree
	var repo *crimson.Repository
	var err error
	switch {
	case *goldFile != "":
		if gold, err = crimson.ReadNewickFile(*goldFile); err != nil {
			return err
		}
	case *repoPath != "":
		if repo, err = openRepo(*repoPath); err != nil {
			return err
		}
		defer repo.Close()
		snap := repo.Snapshot()
		st, err := snap.Tree(*name)
		if err == nil {
			// Rebuild the in-memory tree from the store for the benchmark run.
			ctx, stop := signalContext()
			gold, err = st.ExportCtx(ctx)
			stop()
		}
		snap.Close()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("bench: one of --gold or --repo is required")
	}

	var sizeList []int
	for _, s := range splitSpecies(*sizes) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bench: bad size %q", s)
		}
		sizeList = append(sizeList, v)
	}
	algorithms, seqAlgorithms, err := recon.ByNames(splitSpecies(*algs), *seed)
	if err != nil {
		return err
	}
	cfg := crimson.BenchConfig{
		Gold:          gold,
		SeqLength:     *seqLen,
		SampleSizes:   sizeList,
		Replicates:    *reps,
		Algorithms:    algorithms,
		SeqAlgorithms: seqAlgorithms,
		Seed:          *seed,
		Parallel:      *parallel,
	}
	if *timeArg >= 0 {
		cfg.Method = benchmark.TimeConstrained
		cfg.Time = *timeArg
	}
	rep, err := crimson.RunBenchmark(cfg)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep.JSON(), "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(raw)
		} else {
			if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
				return err
			}
			fmt.Print(rep.String())
		}
	} else {
		fmt.Print(rep.String())
	}
	if repo != nil {
		_, _ = repo.Queries.Record("bench",
			map[string]any{"tree": *name, "sizes": sizeList, "reps": *reps, "algs": *algs},
			"benchmark complete")
		return repo.Commit()
	}
	return nil
}

func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	limit := fs.Int("limit", 20, "entries to show (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepo(*repoPath)
	if err != nil {
		return err
	}
	defer repo.Close()
	snap := repo.Snapshot()
	defer snap.Close()
	entries, err := snap.QueryView.History(*limit)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fmt.Printf("#%d %s %-8s %s => %s\n", e.ID, e.Time.Format("2006-01-02 15:04:05"), e.Kind, e.Args, e.Summary)
	}
	return nil
}

// cmdRerun re-executes a recorded query (§2.1: the Query Repository
// "makes it convenient for users to recall and rerun historical queries").
// It reads the entry, closes the repository, and dispatches the matching
// command with the recorded arguments.
func cmdRerun(args []string) error {
	fs := flag.NewFlagSet("rerun", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	id := fs.Int64("id", 0, "history entry id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepo(*repoPath)
	if err != nil {
		return err
	}
	snap := repo.Snapshot()
	entry, err := snap.QueryView.Get(*id)
	snap.Close()
	if err != nil {
		repo.Close()
		return err
	}
	if err := repo.Close(); err != nil {
		return err
	}
	var a struct {
		Tree    string   `json:"tree"`
		A       string   `json:"a"`
		B       string   `json:"b"`
		Species []string `json:"species"`
		K       int      `json:"k"`
		Time    float64  `json:"time"`
		Seed    int64    `json:"seed"`
	}
	if err := entry.UnmarshalArgs(&a); err != nil {
		return fmt.Errorf("rerun: decoding #%d: %w", *id, err)
	}
	fmt.Printf("rerunning #%d (%s)\n", entry.ID, entry.Kind)
	switch entry.Kind {
	case "lca":
		return cmdLCA([]string{"--repo", *repoPath, "--name", a.Tree, "--species", a.A + "," + a.B})
	case "project":
		return cmdProject([]string{"--repo", *repoPath, "--name", a.Tree, "--species", strings.Join(a.Species, ",")})
	case "clade":
		return cmdClade([]string{"--repo", *repoPath, "--name", a.Tree, "--species", strings.Join(a.Species, ",")})
	case "sample":
		return cmdSample([]string{"--repo", *repoPath, "--name", a.Tree,
			"--k", strconv.Itoa(a.K), "--time", strconv.FormatFloat(a.Time, 'g', -1, 64),
			"--seed", strconv.FormatInt(a.Seed, 10)})
	}
	return fmt.Errorf("rerun: query kind %q is not rerunnable", entry.Kind)
}

func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := openRepo(*repoPath)
	if err != nil {
		return err
	}
	defer repo.Close()
	if err := repo.Check(); err != nil {
		return fmt.Errorf("INTEGRITY FAILURE: %w", err)
	}
	fmt.Println("ok: all tables, trees and indexes are consistent")
	return nil
}

// cmdServe runs crimsond: the repository served over HTTP so many
// clients can query one long-lived service (see internal/server and the
// typed client in repro/client).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "repository page file or sharded directory (required unless --mem)")
	shards := fs.Int("shards", 0, "shard count: 0 = auto-detect from the layout; >1 creates (or validates) a sharded directory, one writer per shard")
	mem := fs.Bool("mem", false, "serve an in-memory repository (no durability; for demos)")
	addr := fs.String("addr", ":8321", "listen address")
	maxReads := fs.Int("max-reads", 64, "bound on concurrently executing read requests")
	cacheSize := fs.Int("cache", 1024, "result-cache capacity in entries (negative disables)")
	maxBody := fs.Int64("max-body", 256<<20, "request body limit in bytes")
	loadWorkers := fs.Int("load-workers", 0, "ingest pipeline fan-out per load request (0 = GOMAXPROCS)")
	readCacheMB := fs.Int("read-cache-mb", 64, "decoded-node read cache budget in MB, split across shards (0 = no cache; queries run the same batched path either way)")
	slowQueryMS := fs.Int("slow-query-ms", 0, "log requests slower than this many milliseconds together with their span tree (0 disables)")
	traceAll := fs.Bool("trace", false, "collect a span tree on every request (clients still opt into the echo with ?debug=trace)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logJSON := fs.Bool("log-json", false, "emit structured JSON request logs (slog) alongside the plain server log")
	quiet := fs.Bool("quiet", false, "suppress log output")
	checkpointMB := fs.Int("checkpoint-mb", 0, "per-shard checkpoint writeback threshold in MB (0 = default 4MB): flush committed pages to the page file once this much accumulates")
	checkpointInterval := fs.Duration("checkpoint-interval", 0, "checkpoint age bound (0 = default 1s): flush committed pages at least this often while any are pending")
	follow := fs.String("follow", "", "run as a read-only follower replicating from this primary crimsond URL (requires --repo; promote with `crimson promote`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var repo *crimson.Repository
	var fl *crimson.Follower
	var err error
	switch {
	case *follow != "":
		if *mem {
			return fmt.Errorf("serve: --follow needs a durable repository, not --mem")
		}
		if *repoPath == "" {
			return fmt.Errorf("serve: --follow requires --repo (the follower's local copy)")
		}
		fctx, fcancel := context.WithCancel(context.Background())
		defer fcancel()
		if repo, fl, err = crimson.OpenFollower(fctx, *repoPath, *follow); err != nil {
			return err
		}
		defer fl.Stop()
	case *mem:
		n := *shards
		if n == 0 {
			n = 1
		}
		repo = crimson.OpenMemSharded(n)
	default:
		if repo, err = openRepoSharded(*repoPath, *shards); err != nil {
			return err
		}
	}
	defer repo.Close()
	repo.SetReadCacheMB(*readCacheMB)
	repo.SetCheckpointPolicy(int64(*checkpointMB)<<20, *checkpointInterval)
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	var logger *slog.Logger
	if *logJSON && !*quiet {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	cfg := crimson.ServerConfig{
		Addr:             *addr,
		MaxInFlightReads: *maxReads,
		ResultCacheSize:  *cacheSize,
		MaxBodyBytes:     *maxBody,
		LoadWorkers:      *loadWorkers,
		Logf:             logf,
		Logger:           logger,
		SlowQueryMS:      *slowQueryMS,
		Trace:            *traceAll,
		EnablePprof:      *pprofOn,
	}
	var srv *crimson.Server
	if fl != nil {
		srv = repo.NewFollowerServer(fl, cfg)
	} else {
		srv = repo.NewServer(cfg)
	}
	if err := srv.Start(); err != nil {
		return err
	}
	role := "primary"
	if fl != nil {
		role = fmt.Sprintf("follower of %s", *follow)
	}
	fmt.Fprintf(os.Stderr, "crimsond listening on %s (%d shard(s), %s, Ctrl-C to stop)\n", srv.Addr(), repo.Shards(), role)
	// Surface the MVCC machinery while serving: the committed epoch, how
	// many snapshot readers are open, and the reclamation backlog.
	stopStats := make(chan struct{})
	if logf != nil {
		go func() {
			tick := time.NewTicker(30 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-tick.C:
					mv := repo.MVCC()
					logf("crimsond: mvcc epoch=%d open-snapshots=%d reclaim-pending-pages=%d",
						mv.Epoch, mv.OpenSnapshots, mv.PendingReclaimPages)
				}
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopStats)
	if logf != nil {
		mv := repo.MVCC()
		logf("crimsond: shutting down (epoch=%d open-snapshots=%d reclaim-pending-pages=%d)",
			mv.Epoch, mv.OpenSnapshots, mv.PendingReclaimPages)
	} else {
		fmt.Fprintln(os.Stderr, "crimsond: shutting down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func cmdView(args []string) error {
	fs := flag.NewFlagSet("view", flag.ContinueOnError)
	treeFile := fs.String("tree", "", "Newick tree file")
	format := fs.String("format", "ascii", "ascii | dot | libsea | newick | nexus")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *treeFile == "" {
		return fmt.Errorf("view: --tree is required")
	}
	t, err := crimson.ReadNewickFile(*treeFile)
	if err != nil {
		return err
	}
	w, done, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer done()
	switch *format {
	case "ascii":
		fmt.Fprint(w, crimson.ASCII(t))
	case "dot":
		fmt.Fprint(w, crimson.DOT(t, "tree"))
	case "libsea":
		fmt.Fprint(w, crimson.LibSea(t, "tree"))
	case "newick":
		fmt.Fprintln(w, crimson.FormatNewick(t))
	case "nexus":
		doc := &crimson.NexusDocument{Taxa: t.LeafNames()}
		doc.Trees = append(doc.Trees, crimson.NamedTree{Name: "tree", Rooted: true, Tree: t})
		return crimson.WriteNexus(w, doc)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
