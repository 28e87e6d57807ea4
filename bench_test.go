// Benchmarks regenerating the paper's performance claims, one per
// experiment in DESIGN.md §4 (E5–E14). The paper is a demonstration paper
// without quantitative tables, so each bench quantifies one of its
// qualitative claims; EXPERIMENTS.md records the measured numbers next to
// the claim they support.
package crimson_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	crimson "repro"
	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/distance"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/recon"
	"repro/internal/relstore"
	"repro/internal/sample"
	"repro/internal/seqsim"
	"repro/internal/storage"
	"repro/internal/treegen"
	"repro/internal/treestore"
)

// --- shared fixtures (built once per process) ------------------------------

var (
	fixMu   sync.Mutex
	fixCat  = map[int]*phylo.Tree{}    // caterpillar by depth
	fixYule = map[int]*phylo.Tree{}    // yule by leaves
	fixIdx  = map[string]*core.Index{} // index by key
)

func catTree(b *testing.B, depth int) *phylo.Tree {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if t, ok := fixCat[depth]; ok {
		return t
	}
	t, err := treegen.Caterpillar(depth, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	fixCat[depth] = t
	return t
}

func yuleTree(b *testing.B, leaves int) *phylo.Tree {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if t, ok := fixYule[leaves]; ok {
		return t
	}
	t, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	fixYule[leaves] = t
	return t
}

func hierIndex(b *testing.B, t *phylo.Tree, key string, f int) *core.Index {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	k := fmt.Sprintf("%s/f=%d", key, f)
	if ix, ok := fixIdx[k]; ok {
		return ix
	}
	ix, err := core.Build(t, f)
	if err != nil {
		b.Fatal(err)
	}
	fixIdx[k] = ix
	return ix
}

func randomPairs(t *phylo.Tree, n int, seed int64) [][2]int {
	r := rand.New(rand.NewSource(seed))
	nodes := t.Nodes()
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{r.Intn(len(nodes)), r.Intn(len(nodes))}
	}
	return out
}

// --- E5: label size and LCA latency vs depth (plain vs hierarchical) -------

// BenchmarkE5LabelSize measures index build time and reports the label
// storage footprint (bytes per node) of plain Dewey vs hierarchical
// labels on caterpillar trees of growing depth — the paper's "labels may
// become large enough to hurt query performance" claim.
func BenchmarkE5LabelSize(b *testing.B) {
	for _, depth := range []int{1000, 10000, 100000} {
		t := catTree(b, depth)
		nodes := float64(t.NumNodes())
		if depth <= 10000 {
			// A plain index on a caterpillar costs O(depth^2) label bytes
			// (~40 GB at depth 100k), so the plain arm stops at 10k —
			// which is itself the point of the experiment.
			b.Run(fmt.Sprintf("plain/depth=%d", depth), func(b *testing.B) {
				var bytes int
				for i := 0; i < b.N; i++ {
					ix := dewey.BuildPlain(t)
					bytes = ix.TotalLabelBytes()
				}
				b.ReportMetric(float64(bytes)/nodes, "labelB/node")
			})
		}
		for _, f := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("hier-f=%d/depth=%d", f, depth), func(b *testing.B) {
				var bytes int
				for i := 0; i < b.N; i++ {
					ix, err := core.Build(t, f)
					if err != nil {
						b.Fatal(err)
					}
					bytes = ix.TotalLabelBytes()
				}
				b.ReportMetric(float64(bytes)/nodes, "labelB/node")
			})
		}
	}
}

// BenchmarkE5LCA measures per-query LCA latency on deep trees for the
// three strategies: naive pointer walk, plain Dewey LCP, hierarchical — the
// last both on the in-memory index and on the stored relations (a snapshot
// handle on an in-memory repository, the path crimsond serves).
func BenchmarkE5LCA(b *testing.B) {
	for _, depth := range []int{1000, 10000, 100000} {
		t := catTree(b, depth)
		pairs := randomPairs(t, 1024, 3)
		nodes := t.Nodes()
		b.Run(fmt.Sprintf("naive/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				phylo.LCA(nodes[p[0]], nodes[p[1]])
			}
		})
		if depth <= 10000 {
			b.Run(fmt.Sprintf("plain/depth=%d", depth), func(b *testing.B) {
				ix := dewey.BuildPlain(t)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					ix.LCA(p[0], p[1])
				}
			})
		}
		for _, f := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("hier-f=%d/depth=%d", f, depth), func(b *testing.B) {
				ix := hierIndex(b, t, fmt.Sprintf("cat%d", depth), f)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					ix.LCA(p[0], p[1])
				}
			})
		}
		b.Run(fmt.Sprintf("stored-f=%d/depth=%d", core.DefaultFanout, depth), func(b *testing.B) {
			s := treestore.OpenMem()
			defer s.Close()
			if _, err := s.Load("cat", t, core.DefaultFanout, nil); err != nil {
				b.Fatal(err)
			}
			sn := s.Snapshot()
			defer sn.Close()
			st, err := sn.Tree("cat")
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := st.LCACtx(ctx, p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: structure queries on a realistic large tree -----------------------

// BenchmarkE6StructureQueries measures LCA and ancestor checks on a
// 100k-leaf Yule tree with the hierarchical index — the "structure-based
// queries via LCP are very efficient" claim.
func BenchmarkE6StructureQueries(b *testing.B) {
	t := yuleTree(b, 100000)
	ix := hierIndex(b, t, "yule100k", core.DefaultFanout)
	pairs := randomPairs(t, 4096, 4)
	b.Run("LCA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.LCA(p[0], p[1])
		}
	})
	b.Run("IsAncestor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.IsAncestor(p[0], p[1])
		}
	})
	b.Run("LocalLabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Label(pairs[i%len(pairs)][0])
		}
	})
}

// --- E7: projection latency vs sample size --------------------------------

// BenchmarkE7Projection measures the rightmost-path projection on a
// 100k-leaf tree across sample sizes (§2.2 strategy).
func BenchmarkE7Projection(b *testing.B) {
	t := yuleTree(b, 100000)
	ix := hierIndex(b, t, "yule100k", core.DefaultFanout)
	planner := project.NewPlanner(t, ix)
	for _, k := range []int{10, 100, 1000, 10000} {
		sel, err := sample.Uniform(t, k, rand.New(rand.NewSource(5)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := planner.Project(sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: sampling latency ---------------------------------------------------

// BenchmarkE8Sampling measures uniform and time-constrained sampling on a
// 100k-leaf tree.
func BenchmarkE8Sampling(b *testing.B) {
	t := yuleTree(b, 100000)
	// A time cutting midway through the ultrametric tree.
	height := 0.0
	for _, d := range t.RootDistances() {
		if d > height {
			height = d
		}
	}
	r := rand.New(rand.NewSource(6))
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("uniform/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sample.Uniform(t, k, r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("time/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sample.WithRespectToTime(t, height/2, k, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: load throughput into the relational store -------------------------

// BenchmarkE9Load measures loading trees into the relational repository
// (hierarchical index build + row/index inserts + commit).
func BenchmarkE9Load(b *testing.B) {
	for _, leaves := range []int{1000, 10000, 50000} {
		t := yuleTree(b, leaves)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := treestore.OpenMem()
				if _, err := s.Load("t", t, core.DefaultFanout, nil); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
			b.ReportMetric(float64(t.NumNodes()*b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkLoadTree measures the end-to-end bulk-load pipeline on a
// 10k-leaf tree: stage node rows, sort by primary key, and build the
// primary tree plus all secondary indexes bottom-up via BTree.BulkLoad.
// Compare against the seed's row-at-a-time numbers recorded in CHANGES.md.
func BenchmarkLoadTree(b *testing.B) {
	t := yuleTree(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := treestore.OpenMem()
		if _, err := s.Load("t", t, core.DefaultFanout, nil); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.ReportMetric(float64(t.NumNodes()*b.N)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkBulkInsert contrasts Table.BulkInsert with the row-at-a-time
// Insert path on an identical 20k-row relation (two secondary indexes,
// mirroring the nodes table schema shape).
func BenchmarkBulkInsert(b *testing.B) {
	schema := relstoreBenchSchema()
	rows := relstoreBenchRows(20000)
	b.Run("BulkInsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := relstore.OpenMemDB()
			tab, err := db.CreateTable(schema)
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.BulkInsert(rows); err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
		b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("RowInsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := relstore.OpenMemDB()
			tab, err := db.CreateTable(schema)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range rows {
				if err := tab.Insert(row); err != nil {
					b.Fatal(err)
				}
			}
			db.Close()
		}
		b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

func relstoreBenchSchema() relstore.Schema {
	return relstore.Schema{
		Name: "bench",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "name", Type: relstore.TString},
			{Name: "dist", Type: relstore.TFloat},
			{Name: "parent", Type: relstore.TInt},
		},
		Key: "id",
		Indexes: []relstore.Index{
			{Name: "by_name", Columns: []string{"name"}},
			{Name: "by_dist", Columns: []string{"dist"}},
		},
	}
}

func relstoreBenchRows(n int) []relstore.Tuple {
	rows := make([]relstore.Tuple, n)
	for i := range rows {
		rows[i] = relstore.Tuple{
			relstore.Int(int64(i)),
			relstore.Str(fmt.Sprintf("species%08d", i)),
			relstore.Float(float64(i%977) * 0.25),
			relstore.Int(int64(i / 2)),
		}
	}
	return rows
}

// BenchmarkParallelRead measures storage-backed query throughput with
// GOMAXPROCS goroutines hammering one stored tree through one snapshot,
// which takes no lock. -cpu 1,4,8 sweeps the parallelism.
func BenchmarkParallelRead(b *testing.B) {
	t := yuleTree(b, 20000)
	s := treestore.OpenMem()
	defer s.Close()
	if _, err := s.Load("gold", t, core.DefaultFanout, nil); err != nil {
		b.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Close()
	st, err := sn.Tree("gold")
	if err != nil {
		b.Fatal(err)
	}
	nodes := st.Info().Nodes
	b.Run("LCA", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(17))
			for pb.Next() {
				if _, err := st.LCACtx(context.Background(), r.Intn(nodes), r.Intn(nodes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("Project-k=20", func(b *testing.B) {
		rows, err := st.SampleUniformCtx(context.Background(), 20, rand.New(rand.NewSource(18)))
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, len(rows))
		for i, row := range rows {
			ids[i] = row.ID
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("Sample-k=50", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(19))
			for pb.Next() {
				if _, err := st.SampleUniformCtx(context.Background(), 50, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// --- E10: tree pattern match ------------------------------------------------

// BenchmarkE10PatternMatch measures the §2.2 pattern match (project the
// pattern's leaves, then compare) across pattern sizes.
func BenchmarkE10PatternMatch(b *testing.B) {
	t := yuleTree(b, 10000)
	ix := hierIndex(b, t, "yule10k", core.DefaultFanout)
	planner := project.NewPlanner(t, ix)
	for _, k := range []int{4, 16, 64, 256} {
		sel, err := sample.Uniform(t, k, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		pattern, err := planner.Project(sel)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pattern=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := crimson.PatternMatch(t, ix, pattern)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Exact {
					b.Fatal("self-derived pattern must match")
				}
			}
		})
	}
}

// --- E11: Benchmark Manager end to end --------------------------------------

// BenchmarkE11EndToEnd measures a complete benchmark run: sample, project,
// distances, NJ + UPGMA, RF scoring.
func BenchmarkE11EndToEnd(b *testing.B) {
	gold := yuleTree(b, 2000).Clone()
	for _, n := range gold.Nodes() {
		if n.Parent != nil {
			n.Length *= 0.15
		}
	}
	gold.Reindex()
	aln, err := seqsim.Evolve(gold, seqsim.Config{Length: 500, Model: seqsim.JC69{}}, rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := benchmark.Run(benchmark.Config{
					Gold:        gold,
					Alignment:   aln,
					SampleSizes: []int{k},
					Replicates:  1,
					Seed:        int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: disk-resident point queries ----------------------------------------

// BenchmarkE12DiskAccess measures random access against a file-backed
// repository — name lookup, child listing, storage-backed LCA and
// time-frontier queries — supporting the paper's "argues against main
// memory techniques" design point.
func BenchmarkE12DiskAccess(b *testing.B) {
	dir, err := os.MkdirTemp("", "crimson-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := treestore.Open(filepath.Join(dir, "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	t := yuleTree(b, 20000)
	if _, err := s.Load("gold", t, core.DefaultFanout, nil); err != nil {
		b.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Close()
	st, err := sn.Tree("gold")
	if err != nil {
		b.Fatal(err)
	}
	names := t.LeafNames()
	pairs := randomPairs(t, 1024, 9)
	r := rand.New(rand.NewSource(10))
	b.Run("NodeByName", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.NodeByNameCtx(context.Background(), names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Children", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.ChildrenCtx(context.Background(), pairs[i%len(pairs)][0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LCA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := st.LCACtx(context.Background(), p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Project-k=50", func(b *testing.B) {
		rows, err := st.SampleUniformCtx(context.Background(), 50, r)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, len(rows))
		for i, row := range rows {
			ids[i] = row.ID
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// storedTrees loads n copies of t ("gold0"...) at the default fanout into a
// file-backed repository of its own and returns handles on one snapshot of
// them; everything is closed when the benchmark ends.
func storedTrees(b *testing.B, t *phylo.Tree, n int) []*treestore.Tree {
	b.Helper()
	s, err := treestore.Open(filepath.Join(b.TempDir(), "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		if _, err := s.Load(fmt.Sprintf("gold%d", i), t, core.DefaultFanout, nil); err != nil {
			b.Fatal(err)
		}
	}
	sn := s.Snapshot()
	b.Cleanup(sn.Close)
	handles := make([]*treestore.Tree, n)
	for i := range handles {
		if handles[i], err = sn.Tree(fmt.Sprintf("gold%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	return handles
}

// timeStored resets the timer for the measured loop; the func it returns
// reports what one iteration of it cost the engine in B+tree descents and in
// rows scanned, next to the time and the allocations.
func timeStored(b *testing.B) func() {
	descents, rows := obs.Engine.Get(obs.CtrBTreeDescents), obs.Engine.Get(obs.CtrRowsScanned)
	b.ReportAllocs()
	b.ResetTimer()
	return func() {
		b.ReportMetric(float64(obs.Engine.Get(obs.CtrBTreeDescents)-descents)/float64(b.N), "descents/op")
		b.ReportMetric(float64(obs.Engine.Get(obs.CtrRowsScanned)-rows)/float64(b.N), "rows/op")
	}
}

// BenchmarkStoredProjectNames is the treestore layer of the benchmark's
// served_cold workload on its own: k=50 projections by species name, every
// one over another name set, against 20k-leaf trees (f=16) in a file-backed
// repository whose trees together outgrow the buffer pool — four of some
// 1 700 pages each against 4 096 frames. It reports time, B+tree descents,
// rows scanned and allocations per projection, so a change to the stored read
// path shows its before and after here, one `go test -bench` away from the
// E5–E14 arms.
func BenchmarkStoredProjectNames(b *testing.B) {
	const trees, sets, k = 4, 64, 50
	t := yuleTree(b, 20000)
	handles := storedTrees(b, t, trees)
	leaves := t.LeafNames()
	r := rand.New(rand.NewSource(13))
	var names [sets][]string
	for i := range names {
		for _, j := range r.Perm(len(leaves))[:k] {
			names[i] = append(names[i], leaves[j])
		}
	}
	ctx := context.Background()
	defer timeStored(b)()
	for i := 0; i < b.N; i++ {
		if _, err := handles[i%trees].ProjectNamesCtx(ctx, names[i/trees%sets]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoredTimeSample is the sample_time op of the benchmark's
// deep_inproc workload on its own: 50 species drawn with respect to time from
// a stored depth-20k caterpillar, at thresholds between 0.94 and 0.97 of its
// height — 600 to 1 200 leaves beyond the frontier, of which a sample returns
// 50.
func BenchmarkStoredTimeSample(b *testing.B) {
	const k, times = 50, 64
	t := catTree(b, 20000)
	tree := storedTrees(b, t, 1)[0]
	height := 0.0
	for _, d := range t.RootDistances() {
		height = max(height, d)
	}
	r := rand.New(rand.NewSource(17))
	var at [times]float64
	for i := range at {
		at[i] = height * (0.94 + 0.03*r.Float64())
	}
	ctx := context.Background()
	defer timeStored(b)()
	for i := 0; i < b.N; i++ {
		if _, err := tree.SampleWithTimeCtx(ctx, at[i%times], k, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoredClade is the clade op of served_cold on its own: the minimal
// spanning clade of 81 species that span a subtree of 80 to 160 leaves of a
// stored 20k-leaf tree, every row of it decoded for the answer.
func BenchmarkStoredClade(b *testing.B) {
	const sets, named = 64, 81
	t := yuleTree(b, 20000)
	tree := storedTrees(b, t, 1)[0]
	// Preorder ids: the clade of node i is nodes[i : i+size[i]].
	nodes := t.Nodes()
	size, leaves := make([]int, len(nodes)), make([]int, len(nodes))
	var roots []int
	for i := len(nodes) - 1; i >= 0; i-- {
		size[i]++
		if nodes[i].IsLeaf() {
			leaves[i]++
		}
		if p := nodes[i].Parent; p != nil {
			size[p.ID] += size[i]
			leaves[p.ID] += leaves[i]
		}
		if leaves[i] >= 80 && leaves[i] <= 160 {
			roots = append(roots, i)
		}
	}
	r := rand.New(rand.NewSource(19))
	var names [sets][]string
	for i := range names {
		root := roots[r.Intn(len(roots))]
		var under []string
		for _, n := range nodes[root : root+size[root]] {
			if n.IsLeaf() {
				under = append(under, n.Name)
			}
		}
		names[i] = append(under[:named-1:named-1], under[len(under)-1])
	}
	ctx := context.Background()
	defer timeStored(b)()
	for i := 0; i < b.N; i++ {
		if _, err := tree.CladeNamesCtx(ctx, names[i%sets]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: storage substrate micro-benchmarks ---------------------------------

// BenchmarkE13BTree measures raw B+tree operations of the storage engine.
func BenchmarkE13BTree(b *testing.B) {
	keys := make([][]byte, 100000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i*7919%100000))
	}
	b.Run("Put", func(b *testing.B) {
		s := storage.OpenMem()
		defer s.Close()
		tr, err := storage.NewBTree(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.Put(keys[i%len(keys)], keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	s := storage.OpenMem()
	defer s.Close()
	tr, err := storage.NewBTree(s)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := tr.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
	b.Run("SeekScan100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := tr.Seek(keys[i%len(keys)])
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 100 && c.Valid(); j++ {
				if err := c.Next(); err != nil {
					b.Fatal(err)
				}
			}
			c.Close()
		}
	})
	b.Run("BulkLoad", func(b *testing.B) {
		sorted := make([]storage.KV, 100000)
		for i := range sorted {
			k := []byte(fmt.Sprintf("key%08d", i))
			sorted[i] = storage.KV{Key: k, Value: k}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := storage.OpenMem()
			tr, err := storage.NewBTree(s)
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.BulkLoad(sorted); err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
		b.ReportMetric(float64(len(sorted)*b.N)/b.Elapsed().Seconds(), "keys/s")
	})
}

// BenchmarkBTreeGet shows the cost of the B+tree's three read shapes on a
// warm tree — 100k bulk-loaded keys, buffer pool and decoded-node cache both
// holding everything — with allocations reported: a point read, a sorted
// batch of 64, and the descent to one held leaf. Reads happen in place, so
// the allocations are the leaf's node and offset table (and a batch's
// result slices), whatever a leaf holds.
func BenchmarkBTreeGet(b *testing.B) {
	s := storage.OpenMem()
	defer s.Close()
	s.SetReadCacheBytes(64 << 20)
	tr, err := storage.NewBTree(s)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]storage.KV, 100000)
	for i := range pairs {
		k := []byte(fmt.Sprintf("key%08d", i))
		pairs[i] = storage.KV{Key: k, Value: k}
	}
	if err := tr.BulkLoad(pairs); err != nil {
		b.Fatal(err)
	}
	key := func(i int) []byte { return pairs[i*7919%len(pairs)].Key }
	ctx := context.Background()
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.GetC(key(i), nil); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("batch-64", func(b *testing.B) {
		batch := make([][]byte, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range batch {
				batch[j] = key(64*i + j)
			}
			if _, _, err := tr.GetBatchC(ctx, batch, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("leaf", func(b *testing.B) {
		b.ReportAllocs()
		cells := 0
		for i := 0; i < b.N; i++ {
			leaf, err := tr.LeafC(key(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			cells += leaf.Len()
		}
		b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	})
}

// --- E14: fanout ablation -----------------------------------------------------

// BenchmarkE14FanoutAblation sweeps the depth bound f on a deep tree,
// reporting LCA latency and label bytes per node: small f means smaller
// labels but more layers to recurse through.
func BenchmarkE14FanoutAblation(b *testing.B) {
	t := catTree(b, 50000)
	pairs := randomPairs(t, 1024, 11)
	for _, f := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			ix := hierIndex(b, t, "cat50k", f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ix.LCA(p[0], p[1])
			}
			st := ix.Stats()
			b.ReportMetric(float64(st.LabelBytes)/float64(st.Nodes), "labelB/node")
			b.ReportMetric(float64(st.Layers), "layers")
		})
	}
}

// --- supporting benches: simulation and reconstruction throughput ------------

// BenchmarkSeqSim measures sequence-evolution throughput (sites/s) for
// each substitution model.
func BenchmarkSeqSim(b *testing.B) {
	t := yuleTree(b, 1000)
	models := []seqsim.Model{seqsim.JC69{}, seqsim.K2P{Kappa: 2}, seqsim.HKY85{Kappa: 2, BaseFreqs: [4]float64{0.3, 0.2, 0.2, 0.3}}}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			r := rand.New(rand.NewSource(12))
			for i := 0; i < b.N; i++ {
				if _, err := seqsim.Evolve(t, seqsim.Config{Length: 200, Model: m}, r); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*200*1000/b.Elapsed().Seconds(), "leafsites/s")
		})
	}
}

// BenchmarkRecon measures NJ and UPGMA runtime across input sizes.
func BenchmarkRecon(b *testing.B) {
	for _, k := range []int{25, 50, 100, 200} {
		t := yuleTree(b, k)
		leaves := t.Leaves()
		names := make([]string, len(leaves))
		dist := t.RootDistances()
		for i, l := range leaves {
			names[i] = l.Name
		}
		m := distance.New(names)
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				l := phylo.LCA(leaves[i], leaves[j])
				m.Set(i, j, dist[leaves[i]]+dist[leaves[j]]-2*dist[l])
			}
		}
		for _, alg := range []recon.Algorithm{recon.NeighborJoining{}, recon.UPGMA{}} {
			b.Run(fmt.Sprintf("%s/k=%d", alg.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := alg.Reconstruct(m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
