// End-to-end tests for crimsond: a real server on an ephemeral port,
// driven through the typed client, with results checked against the
// in-process repository API.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/shard"
	"repro/internal/treegen"
)

// testShards is the shard count the E2E suite runs at: 1 by default, or
// whatever CRIMSON_TEST_SHARDS says (CI runs the suite a second time at 4
// to prove the wire behavior is identical on a sharded repository).
func testShards(t *testing.T) int {
	t.Helper()
	raw := os.Getenv("CRIMSON_TEST_SHARDS")
	if raw == "" {
		return 1
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		t.Fatalf("bad CRIMSON_TEST_SHARDS=%q", raw)
	}
	return n
}

// startServer opens an in-memory repository (sharded per
// CRIMSON_TEST_SHARDS), serves it on an ephemeral port, and returns the
// repository plus a client on the live wire path.
func startServer(t *testing.T, cfg crimson.ServerConfig) (*crimson.Repository, *client.Client) {
	return startServerShards(t, cfg, testShards(t))
}

// replicaMode reports whether the suite is running against a
// primary+follower pair (CRIMSON_TEST_REPLICA=1). Reads eligible for
// replica routing are then served by the follower, so assertions about
// the primary's read-side internals (result cache hits, read-op
// histograms, async history records, abort counters) don't apply.
func replicaMode() bool { return os.Getenv("CRIMSON_TEST_REPLICA") == "1" }

func startServerShards(t *testing.T, cfg crimson.ServerConfig, shards int) (*crimson.Repository, *client.Client) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	// CRIMSON_TEST_TRACE=1 reruns the whole suite with span collection on
	// every request plus a slow-query threshold (CI does this under
	// -race), proving the traced path changes no wire behavior.
	if os.Getenv("CRIMSON_TEST_TRACE") == "1" {
		cfg.Trace = true
		if cfg.SlowQueryMS == 0 {
			cfg.SlowQueryMS = 1
		}
	}
	// CRIMSON_TEST_REPLICA=1 reruns the whole suite against a file-backed
	// primary with a streaming follower attached: the client's data reads
	// round-robin to the follower (with an epoch barrier, see repl_test.go)
	// and must be indistinguishable from single-server reads.
	if os.Getenv("CRIMSON_TEST_REPLICA") == "1" {
		return startReplicaPair(t, cfg, shards)
	}
	repo := crimson.OpenMemSharded(shards)
	srv := repo.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		repo.Close()
	})
	return repo, client.New("http://"+srv.Addr(), nil)
}

func yule(t *testing.T, leaves int, seed int64) *phylo.Tree {
	t.Helper()
	tree, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generating tree: %v", err)
	}
	return tree
}

// TestEndToEnd loads a >=1k-leaf tree over HTTP and checks every query
// endpoint against the in-process API.
func TestEndToEnd(t *testing.T) {
	repo, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 1200, 7)

	info, err := cl.LoadTreeCtx(context.Background(), "gold", 0, gold)
	if err != nil {
		t.Fatalf("loading over HTTP: %v", err)
	}
	if info.Leaves != 1200 || info.Nodes != gold.NumNodes() {
		t.Fatalf("load info = %+v, want %d nodes / 1200 leaves", info, gold.NumNodes())
	}

	// The in-process view of the same repository.
	snap := repo.Snapshot()
	defer snap.Close()
	st, err := snap.Tree("gold")
	if err != nil {
		t.Fatalf("opening stored tree in-process: %v", err)
	}

	// Sampling is seeded, so the wire path must reproduce the in-process
	// draw exactly.
	wire, err := cl.SampleUniformCtx(context.Background(), "gold", 40, 99)
	if err != nil {
		t.Fatalf("sample over HTTP: %v", err)
	}
	rows, err := st.SampleUniformCtx(context.Background(), 40, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("sample in-process: %v", err)
	}
	local := make([]string, len(rows))
	for i, n := range rows {
		local[i] = n.Name
	}
	sort.Strings(local) // the server returns names sorted; in-process sorts by id
	if strings.Join(wire, " ") != strings.Join(local, " ") {
		t.Fatalf("seeded sample differs:\nwire  = %v\nlocal = %v", wire, local)
	}

	// Projection over the sampled species: identical trees both ways.
	projWire, err := cl.ProjectTreeCtx(context.Background(), "gold", wire)
	if err != nil {
		t.Fatalf("project over HTTP: %v", err)
	}
	projLocal, err := st.ProjectNamesCtx(context.Background(), wire)
	if err != nil {
		t.Fatalf("project in-process: %v", err)
	}
	if !phylo.Equal(projWire, projLocal, 1e-9) {
		t.Fatalf("projection differs between wire and in-process")
	}

	// LCA for several pairs.
	for i := 0; i+1 < 10; i += 2 {
		a, b := wire[i], wire[i+1]
		resp, err := cl.LCACtx(context.Background(), "gold", a, b)
		if err != nil {
			t.Fatalf("LCA(%s,%s) over HTTP: %v", a, b, err)
		}
		na, err := st.NodeByNameCtx(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := st.NodeByNameCtx(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.LCACtx(context.Background(), na.ID, nb.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Node.ID != want {
			t.Fatalf("LCA(%s,%s) = %d over HTTP, %d in-process", a, b, resp.Node.ID, want)
		}
	}

	// Pattern match: a projection of the stored tree must match exactly.
	pattern, err := st.ProjectNamesCtx(context.Background(), wire[:8])
	if err != nil {
		t.Fatal(err)
	}
	match, err := cl.MatchCtx(context.Background(), "gold", pattern)
	if err != nil {
		t.Fatalf("match over HTTP: %v", err)
	}
	if !match.Exact || match.RF != 0 {
		t.Fatalf("projection pattern should match exactly, got %+v", match)
	}

	// Clade root equals the LCA of the species set.
	clade, err := cl.CladeCtx(context.Background(), "gold", wire[:4])
	if err != nil {
		t.Fatalf("clade over HTTP: %v", err)
	}
	if clade.Nodes <= 0 || clade.Leaves < 4 {
		t.Fatalf("clade = %+v", clade)
	}

	// Export round-trips the full tree.
	exported, err := cl.ExportCtx(context.Background(), "gold")
	if err != nil {
		t.Fatalf("export over HTTP: %v", err)
	}
	if exported.NumLeaves() != 1200 {
		t.Fatalf("exported %d leaves, want 1200", exported.NumLeaves())
	}

	// Tree listing and info agree with the catalog.
	trees, err := cl.TreesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Name != "gold" {
		t.Fatalf("trees = %+v", trees)
	}

	// The query history saw the wire queries. Read-path records drain
	// through the async recorder, so poll until they land. In replica mode
	// the eligible reads ran on the follower, which records no history;
	// only the primary-served requests (the load, and match's POST) appear.
	wantKinds := []string{"load", "sample", "project", "lca", "match", "clade"}
	if replicaMode() {
		wantKinds = []string{"load", "match"}
	}
	var kinds map[string]int
	deadline := time.Now().Add(5 * time.Second)
	for {
		hist, err := cl.HistoryCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		kinds = make(map[string]int)
		for _, e := range hist {
			kinds[e.Kind]++
		}
		missing := false
		for _, k := range wantKinds {
			if kinds[k] == 0 {
				missing = true
			}
		}
		if !missing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history still missing kinds after recorder drain (got %v)", kinds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheHitsVisibleInStats re-issues identical projections and LCAs
// and expects them served from the result cache, and the stats endpoint to
// count the hits.
func TestCacheHitsVisibleInStats(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 300, 3)
	if _, err := cl.LoadTreeCtx(context.Background(), "gold", 0, gold); err != nil {
		t.Fatal(err)
	}
	species, err := cl.SampleUniformCtx(context.Background(), "gold", 12, 5)
	if err != nil {
		t.Fatal(err)
	}

	first, err := cl.ProjectCtx(context.Background(), "gold", species)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("first projection claims to be cached")
	}
	for i := 0; i < 3; i++ {
		again, err := cl.ProjectCtx(context.Background(), "gold", species)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("repeat projection %d not served from cache", i)
		}
		if again.Newick != first.Newick {
			t.Fatalf("cached projection differs from original")
		}
	}
	clade1, err := cl.CladeCtx(context.Background(), "gold", species[:4])
	if err != nil {
		t.Fatal(err)
	}
	if clade1.Cached {
		t.Fatalf("first clade claims to be cached")
	}
	clade2, err := cl.CladeCtx(context.Background(), "gold", species[:4])
	if err != nil {
		t.Fatal(err)
	}
	if !clade2.Cached {
		t.Fatalf("repeat clade not served from cache")
	}
	if _, err := cl.LCACtx(context.Background(), "gold", species[0], species[1]); err != nil {
		t.Fatal(err)
	}
	// Reversed arguments must hit the same cache entry (LCA is symmetric).
	rev, err := cl.LCACtx(context.Background(), "gold", species[1], species[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Cached {
		t.Fatalf("symmetric LCA not served from cache")
	}

	// The stats are the primary's; against a replica pair the follower
	// served (and cached) these reads.
	if replicaMode() {
		return
	}
	stats, err := cl.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 4 {
		t.Fatalf("stats report %d cache hits, want >= 4 (%+v)", stats.CacheHits, stats)
	}
	if stats.CacheEntries == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PerOp["project"] < 4 || stats.PerOp["lca"] < 2 {
		t.Fatalf("per-op counters = %v", stats.PerOp)
	}
}

// TestConcurrentClients drives the server from many goroutines at once
// (run under -race in CI) while a writer loads and deletes other trees.
func TestConcurrentClients(t *testing.T) {
	repo, cl := startServer(t, crimson.ServerConfig{MaxInFlightReads: 8})
	gold := yule(t, 400, 11)
	if _, err := cl.LoadTreeCtx(context.Background(), "gold", 0, gold); err != nil {
		t.Fatal(err)
	}
	snap := repo.Snapshot()
	defer snap.Close()
	st, err := snap.Tree("gold")
	if err != nil {
		t.Fatal(err)
	}
	names, err := cl.SampleUniformCtx(context.Background(), "gold", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantLCA := make(map[string]int)
	for i := 0; i+1 < len(names); i += 2 {
		na, err := st.NodeByNameCtx(context.Background(), names[i])
		if err != nil {
			t.Fatal(err)
		}
		nb, err := st.NodeByNameCtx(context.Background(), names[i+1])
		if err != nil {
			t.Fatal(err)
		}
		id, err := st.LCACtx(context.Background(), na.ID, nb.ID)
		if err != nil {
			t.Fatal(err)
		}
		wantLCA[names[i]+"|"+names[i+1]] = id
	}

	const readers = 8
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 12; iter++ {
				i := (g + iter) % (len(names) - 1)
				if i%2 == 1 {
					i--
				}
				resp, err := cl.LCACtx(context.Background(), "gold", names[i], names[i+1])
				if err != nil {
					errc <- fmt.Errorf("reader %d: lca: %w", g, err)
					return
				}
				if want := wantLCA[names[i]+"|"+names[i+1]]; resp.Node.ID != want {
					errc <- fmt.Errorf("reader %d: LCA = %d, want %d", g, resp.Node.ID, want)
					return
				}
				end := i + 6
				if end > len(names) {
					end = len(names)
				}
				if _, err := cl.ProjectCtx(context.Background(), "gold", names[i:end]); err != nil {
					errc <- fmt.Errorf("reader %d: project: %w", g, err)
					return
				}
				if _, err := cl.SampleUniformCtx(context.Background(), "gold", 5, int64(g*100+iter)); err != nil {
					errc <- fmt.Errorf("reader %d: sample: %w", g, err)
					return
				}
			}
		}(g)
	}
	// One writer loads and deletes scratch trees while the readers run.
	// (Scratch trees are generated up front: test helpers must not be
	// called from non-test goroutines.)
	scratch := make([]*phylo.Tree, 4)
	for i := range scratch {
		scratch[i] = yule(t, 60, int64(20+i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < len(scratch); iter++ {
			name := fmt.Sprintf("scratch%d", iter)
			if _, err := cl.LoadTreeCtx(context.Background(), name, 0, scratch[iter]); err != nil {
				errc <- fmt.Errorf("writer: load %s: %w", name, err)
				return
			}
			if err := cl.DeleteCtx(context.Background(), name); err != nil {
				errc <- fmt.Errorf("writer: delete %s: %w", name, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	stats, err := cl.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.InFlightReads != 0 {
		t.Fatalf("in-flight reads = %d after drain", stats.InFlightReads)
	}
	if stats.Errors != 0 {
		t.Fatalf("server counted %d errors", stats.Errors)
	}
}

// TestServerBenchAndSpeciesAndErrors covers the remaining endpoints:
// server-side benchmark runs, species data, NEXUS loads and error
// statuses.
func TestServerBenchAndSpeciesAndErrors(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 64, 13)
	if _, err := cl.LoadTreeCtx(context.Background(), "gold", 0, gold); err != nil {
		t.Fatal(err)
	}

	rep, err := cl.BenchCtx(context.Background(), "gold", client.BenchRequest{
		Sizes:      []int{8},
		Replicates: 2,
		Algorithms: []string{"NJ", "UPGMA"},
		SeqLength:  120,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("bench over HTTP: %v", err)
	}
	if len(rep.Results) != 4 { // 1 size x 2 replicates x 2 algorithms
		t.Fatalf("bench results = %d, want 4", len(rep.Results))
	}
	if len(rep.Summary) != 2 || rep.Config.GoldLeaves != 64 {
		t.Fatalf("bench report = %+v", rep)
	}

	// A parsimony-only request must not pick up the NJ/UPGMA defaults.
	mpOnly, err := cl.BenchCtx(context.Background(), "gold", client.BenchRequest{
		Sizes: []int{6}, Replicates: 1, Algorithms: []string{"MP"}, SeqLength: 60, Seed: 2,
	})
	if err != nil {
		t.Fatalf("MP-only bench: %v", err)
	}
	if len(mpOnly.Results) != 1 || mpOnly.Results[0].Algorithm != "MP" {
		t.Fatalf("MP-only bench ran %+v, want exactly one MP result", mpOnly.Results)
	}

	// Species data round trip.
	if err := cl.PutSpeciesDataCtx(context.Background(), "gold", "s1", "seq:test", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	data, err := cl.SpeciesDataCtx(context.Background(), "gold", "s1", "seq:test")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ACGT" {
		t.Fatalf("species data = %q", data)
	}
	recs, err := cl.ListSpeciesDataCtx(context.Background(), "gold", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != "seq:test" {
		t.Fatalf("records = %+v", recs)
	}
	if err := cl.DeleteSpeciesDataCtx(context.Background(), "gold", "s1", "seq:test"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SpeciesDataCtx(context.Background(), "gold", "s1", "seq:test"); !isStatus(err, 404) {
		t.Fatalf("deleted species data: err = %v, want 404", err)
	}

	// Error statuses.
	if _, err := cl.InfoCtx(context.Background(), "nosuch"); !isStatus(err, 404) {
		t.Fatalf("missing tree: err = %v, want 404", err)
	}
	if _, err := cl.LoadTreeCtx(context.Background(), "gold", 0, gold); !isStatus(err, 409) {
		t.Fatalf("duplicate load: err = %v, want 409", err)
	}
	if _, err := cl.LoadNewickCtx(context.Background(), "bad name", 0, strings.NewReader("(a,b);")); !isStatus(err, 400) {
		t.Fatalf("bad name: err = %v, want 400", err)
	}
	if _, err := cl.LoadNewickCtx(context.Background(), "badbody", 0, strings.NewReader("((((")); !isStatus(err, 400) {
		t.Fatalf("bad newick: err = %v, want 400", err)
	}
	if _, err := cl.ProjectCtx(context.Background(), "gold", nil); !isStatus(err, 400) {
		t.Fatalf("empty projection: err = %v, want 400", err)
	}

	// Deleting a tree drops it from the catalog.
	if err := cl.DeleteCtx(context.Background(), "gold"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InfoCtx(context.Background(), "gold"); !isStatus(err, 404) {
		t.Fatalf("deleted tree still visible: %v", err)
	}
}

func isStatus(err error, status int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// TestShardedServer drives an explicitly 4-sharded server: concurrent
// loads of trees on distinct shards over the wire, per-shard MVCC gauges
// in /v1/stats, version-keyed cache hits, and delete+reload cache
// correctness across a shard.
func TestShardedServer(t *testing.T) {
	const shards = 4
	_, cl := startServerShards(t, crimson.ServerConfig{}, shards)

	// One tree name per shard (deterministic scan over the router).
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, shards)
	for i, found := 0, 0; found < shards; i++ {
		name := fmt.Sprintf("wtree%d", i)
		if si := router.Place(name); names[si] == "" {
			names[si] = name
			found++
		}
	}
	trees := make([]*phylo.Tree, shards)
	for i := range trees {
		trees[i] = yule(t, 150+10*i, int64(60+i))
	}

	// Concurrent loads onto distinct shards: each takes a different shard's
	// writer mutex, so they genuinely run in parallel.
	var wg sync.WaitGroup
	errc := make(chan error, shards)
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.LoadTreeCtx(context.Background(), names[i], 0, trees[i]); err != nil {
				errc <- fmt.Errorf("load %s: %w", names[i], err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	listed, err := cl.TreesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != shards {
		t.Fatalf("listing has %d trees, want %d", len(listed), shards)
	}

	// Per-shard gauges: every shard committed at least once, and the
	// aggregate epoch is their sum.
	stats, err := cl.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != shards {
		t.Fatalf("stats report %d shards, want %d", len(stats.Shards), shards)
	}
	var sum uint64
	for i, sh := range stats.Shards {
		if sh.Epoch == 0 {
			t.Fatalf("shard %d never committed (epoch 0) after loading a tree on it", i)
		}
		sum += sh.Epoch
	}
	if stats.Epoch != sum {
		t.Fatalf("aggregate epoch %d != shard sum %d", stats.Epoch, sum)
	}

	// Version-keyed cache: repeats hit, and a delete+reload of the same
	// name moves the version so the old entries can never be served.
	name := names[1]
	sample, err := cl.SampleUniformCtx(context.Background(), name, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cl.ProjectCtx(context.Background(), name, sample)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cl.ProjectCtx(context.Background(), name, sample)
	if err != nil {
		t.Fatal(err)
	}
	if again.Newick != first.Newick {
		t.Fatalf("repeat projection differs: %+v", again)
	}
	if !again.Cached {
		t.Fatalf("repeat projection not served from cache: %+v", again)
	}
	if err := cl.DeleteCtx(context.Background(), name); err != nil {
		t.Fatal(err)
	}
	replacement := yule(t, 90, 77)
	if _, err := cl.LoadTreeCtx(context.Background(), name, 0, replacement); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.ProjectCtx(context.Background(), name, replacement.LeafNames()[:4])
	if err != nil {
		t.Fatalf("projection after reload: %v", err)
	}
	if fresh.Cached {
		t.Fatal("projection on the reloaded tree claims to be cached")
	}
	if _, err := cl.ProjectCtx(context.Background(), name, sample); !isStatus(err, 404) {
		t.Fatalf("old species set against the reloaded tree: err = %v, want 404 (stale cache must not answer)", err)
	}
}

// TestBadSampleRequestsAre400: a sample the tree cannot supply is the
// caller's mistake — a size below one or above the leaf count, a time beyond
// the tree's height, fewer leaves beyond the time than asked for — and is
// answered 400 with the reason, not 500; the read slot it took is released.
func TestBadSampleRequestsAre400(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	// Leaves a, b at time 3, c at 2, d at 9: only d lies beyond time 5.
	if _, err := cl.LoadNewickCtx(ctx, "uneven", 0, strings.NewReader("(((a:1,b:1):1,c:1):1,d:9);")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		ask  func() ([]string, error)
		want string
	}{
		{"k=0", func() ([]string, error) { return cl.SampleUniformCtx(ctx, "uneven", 0, 1) }, "sample size must be >= 1"},
		{"k above the leaf count", func() ([]string, error) { return cl.SampleUniformCtx(ctx, "uneven", 5, 1) }, "sample 5 > 4 leaves"},
		{"k=0 with a time", func() ([]string, error) { return cl.SampleWithTimeCtx(ctx, "uneven", 1, 0, 1) }, "sample size must be >= 1"},
		{"a time beyond the height", func() ([]string, error) { return cl.SampleWithTimeCtx(ctx, "uneven", 100, 1, 1) }, "no nodes beyond time 100"},
		{"fewer than k leaves beyond the time", func() ([]string, error) { return cl.SampleWithTimeCtx(ctx, "uneven", 5, 2, 1) }, "only 1 leaves beyond time 5 < 2"},
	} {
		_, err := tc.ask()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Message, tc.want) {
			t.Errorf("%s: err = %v, want 400 saying %q", tc.what, err, tc.want)
		}
	}
	if got, err := cl.SampleWithTimeCtx(ctx, "uneven", 5, 1, 1); err != nil || len(got) != 1 || got[0] != "d" {
		t.Fatalf("the sample the tree can supply: %v, %v, want [d]", got, err)
	}
	waitStats(t, cl, "read slots released after the rejected samples", func(st client.Stats) bool {
		return st.InFlightReads == 0 && st.OpenSnapshots == 0
	})
}

// TestBadBenchRequestsAre400: a Benchmark Manager run the gold tree cannot
// draw its samples for is the caller's mistake as well — a size below one or
// above the leaf count, a time beyond the tree's height — and is answered 400
// with the sampler's reason, as an unknown algorithm is; the read slot the
// export took is released.
func TestBadBenchRequestsAre400(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, yule(t, 64, 13)); err != nil {
		t.Fatal(err)
	}
	beyond := 1e9
	for _, tc := range []struct {
		what string
		req  client.BenchRequest
		want string
	}{
		{"a size above the leaf count", client.BenchRequest{Sizes: []int{500}}, "fewer eligible leaves than requested"},
		{"size 0", client.BenchRequest{Sizes: []int{0}}, "requested count must be >= 1"},
		{"a time beyond the height", client.BenchRequest{Sizes: []int{4}, Time: &beyond}, "no nodes satisfy the time constraint"},
		{"an unknown algorithm", client.BenchRequest{Sizes: []int{4}, Algorithms: []string{"ML"}}, `unknown algorithm "ML"`},
	} {
		tc.req.Replicates, tc.req.SeqLength, tc.req.Seed = 1, 60, 1
		_, err := cl.BenchCtx(ctx, "gold", tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Message, tc.want) {
			t.Errorf("%s: err = %v, want 400 saying %q", tc.what, err, tc.want)
		}
	}
	waitStats(t, cl, "read slots released after the rejected runs", func(st client.Stats) bool {
		return st.InFlightReads == 0 && st.OpenSnapshots == 0
	})
}

// TestReloadNeverServesOldIncarnation: result-cache keys name one
// incarnation of a tree, and a delete or reload only moves the tree's
// version — nothing is dropped from the cache. Reloading a name with
// another shape over the same species, round after round, must still
// answer project, lca, clade and match for the shape now stored, and the
// stranded entries must not push the cache past its capacity.
func TestReloadNeverServesOldIncarnation(t *testing.T) {
	const capacity = 6
	_, cl := startServer(t, crimson.ServerConfig{ResultCacheSize: capacity})
	ctx := context.Background()
	shapes := []*phylo.Tree{yule(t, 80, 41), yule(t, 80, 42)}
	leaves := shapes[0].LeafNames()
	sort.Strings(leaves)
	species := leaves[:7]
	// The LCA and clade pair: a cherry of one shape, two clades of the other.
	var pair []string
	for _, n := range shapes[0].Leaves() {
		sib := n.Parent.Children
		if len(sib) == 2 && sib[0].IsLeaf() && sib[1].IsLeaf() &&
			shapes[1].NodeByName(sib[0].Name).Parent != shapes[1].NodeByName(sib[1].Name).Parent {
			pair = []string{sib[0].Name, sib[1].Name}
			break
		}
	}
	if pair == nil {
		t.Fatal("the shapes share every cherry")
	}
	pattern, err := newick.Parse(fmt.Sprintf("((%s,%s),(%s,%s),%s);", leaves[10], leaves[11], leaves[12], leaves[13], leaves[14]))
	if err != nil {
		t.Fatal(err)
	}
	// answers runs the four cacheable queries twice and returns the first
	// round's answers; the second must repeat them from the cache.
	answers := func(round int) [4]string {
		var out [4]string
		for rep := 0; rep < 2; rep++ {
			p, err := cl.ProjectCtx(ctx, "t", species)
			if err != nil {
				t.Fatalf("round %d project: %v", round, err)
			}
			l, err := cl.LCACtx(ctx, "t", pair[0], pair[1])
			if err != nil {
				t.Fatalf("round %d lca: %v", round, err)
			}
			c, err := cl.CladeCtx(ctx, "t", pair)
			if err != nil {
				t.Fatalf("round %d clade: %v", round, err)
			}
			m, err := cl.MatchCtx(ctx, "t", pattern)
			if err != nil {
				t.Fatalf("round %d match: %v", round, err)
			}
			cached := [4]bool{p.Cached, l.Cached, c.Cached, m.Cached}
			p.Cached, l.Cached, c.Cached, m.Cached = false, false, false, false
			got := [4]string{fmt.Sprint(p), fmt.Sprint(l), fmt.Sprint(c), fmt.Sprint(m)}
			if rep == 0 {
				out = got
			} else if got != out {
				t.Fatalf("round %d: a repeat answered %v, the first %v", round, got, out)
			}
			if hit := rep == 1; cached != [4]bool{hit, hit, hit, hit} {
				t.Fatalf("round %d repeat %d: cached flags %v", round, rep, cached)
			}
		}
		return out
	}
	var want [2][4]string
	for round := 0; round < 6; round++ {
		if round > 0 {
			if err := cl.DeleteCtx(ctx, "t"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.LoadTreeCtx(ctx, "t", 0, shapes[round%2]); err != nil {
			t.Fatal(err)
		}
		got := answers(round)
		if round < 2 {
			want[round] = got
			continue
		}
		if got != want[round%2] {
			t.Fatalf("round %d answered %v, want shape %d's %v", round, got, round%2, want[round%2])
		}
	}
	for i := range want[0] {
		if want[0][i] == want[1][i] {
			t.Fatalf("query %d answers both shapes alike (%s): it cannot tell incarnations apart", i, want[0][i])
		}
	}
	st, err := cl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheEntries > capacity {
		t.Fatalf("cache_entries = %d, capacity %d", st.CacheEntries, capacity)
	}
}

// TestPreStampTreeAnswersUncached serves a repository the crimson CLI wrote
// before tables carried a creation stamp (testdata/prestamp.db: one tree,
// "gold", over leaves a..h). Its tree is version 0, as every incarnation of
// it would be, so a repeated query is answered afresh and counted a miss,
// never served from the result cache. Deleted and reloaded, the tree
// carries a stamp and its answers are cached again.
func TestPreStampTreeAnswersUncached(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"prestamp.db", "prestamp.db.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	repo, err := crimson.Open(filepath.Join(dir, "prestamp.db"))
	if err != nil {
		t.Fatal(err)
	}
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		repo.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		repo.Close()
	})
	cl := client.New("http://"+srv.Addr(), nil)
	ctx := context.Background()

	// lcaTwice asks the same LCA twice and reports both answers' "cached"
	// flags and the cache misses the two requests counted.
	lcaTwice := func() (cached [2]bool, size int, misses int64) {
		before, err := cl.StatsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cached {
			l, err := cl.LCACtx(ctx, "gold", "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			cached[i], size = l.Cached, l.Node.Size
		}
		after, err := cl.StatsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return cached, size, after.CacheMisses - before.CacheMisses
	}
	if cached, size, misses := lcaTwice(); cached != [2]bool{} || size != 3 || misses != 2 {
		t.Fatalf("version-0 tree: cached %v, LCA size %d, %d misses; want no cached answer, size 3, 2 misses", cached, size, misses)
	}

	if err := cl.DeleteCtx(ctx, "gold"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadNewickCtx(ctx, "gold", 0, strings.NewReader("((a,c),(b,d));")); err != nil {
		t.Fatal(err)
	}
	if cached, size, misses := lcaTwice(); cached != [2]bool{false, true} || size != 7 || misses != 1 {
		t.Fatalf("reloaded tree: cached %v, LCA size %d, %d misses; want the repeat cached, size 7, 1 miss", cached, size, misses)
	}
}
