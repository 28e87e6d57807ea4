package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/phylo"
	"repro/internal/queryrepo"
	"repro/internal/treestore"
)

// The write path holds a shard's writer mutex for its page writes only, so
// what used to be excluded by the long hold is now decided under the lock
// or ordered against the commit's epoch. These tests run over the wire, in
// every mode the suite runs in (sharded, replica pair, traced).

// TestConcurrentLoadsOfOneName: loads of one name prepare side by side, and
// the name check under the lock lets exactly one through. The losers get
// 409 and leave nothing behind — no table that would block the name later.
func TestConcurrentLoadsOfOneName(t *testing.T) {
	repo, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	const n = 6
	trees := make([]*phylo.Tree, n)
	for i := range trees {
		trees[i] = yule(t, 40+7*i, int64(i+1))
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = cl.LoadTreeCtx(ctx, "same", 0, trees[i])
		}()
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		var ae *client.APIError
		switch {
		case err == nil && winner < 0:
			winner = i
		case err == nil:
			t.Fatalf("loads %d and %d of one name both succeeded", winner, i)
		case !errors.As(err, &ae) || ae.Status != http.StatusConflict:
			t.Fatalf("losing load %d: %v, want 409", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no load of the name succeeded")
	}
	info, err := cl.InfoCtx(ctx, "same")
	if err != nil || info.Leaves != trees[winner].NumLeaves() {
		t.Fatalf("stored tree: %+v, %v; the winner has %d leaves", info, err, trees[winner].NumLeaves())
	}
	if listed, err := cl.TreesCtx(ctx); err != nil || len(listed) != 1 {
		t.Fatalf("tree listing after the race: %+v, %v", listed, err)
	}
	if err := repo.Check(); err != nil {
		t.Fatalf("integrity after the race: %v", err)
	}
	// A table a loser had left behind would make this reload fail.
	if err := cl.DeleteCtx(ctx, "same"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "same", 0, trees[0]); err != nil {
		t.Fatalf("reloading the name after the race: %v", err)
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
}

// startFileServer is startServer on a file-backed repository whatever the
// mode: an in-memory store publishes a commit the moment it is captured, so
// only a store with a WAL has a window between a commit's capture and its
// publication for a reader to fall into.
func startFileServer(t *testing.T) *client.Client {
	t.Helper()
	if replicaMode() {
		_, cl := startServer(t, crimson.ServerConfig{})
		return cl
	}
	repo, err := crimson.OpenSharded(filepath.Join(t.TempDir(), "repo"), testShards(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		repo.Close()
	})
	return client.New("http://"+srv.Addr(), nil)
}

// incarnation is what three read paths answer for one stored tree: Info
// from the tree handle, LCA and Project through the result cache.
type incarnation struct {
	leaves int
	lca    client.Node
	newick string
}

func readIncarnation(ctx context.Context, cl *client.Client, name string, names []string) (incarnation, error) {
	var in incarnation
	info, err := cl.InfoCtx(ctx, name)
	if err != nil {
		return in, err
	}
	lca, err := cl.LCACtx(ctx, name, names[0], names[1])
	if err != nil {
		return in, err
	}
	proj, err := cl.ProjectCtx(ctx, name, names)
	if err != nil {
		return in, err
	}
	return incarnation{leaves: info.Leaves, lca: lca.Node, newick: proj.Newick}, nil
}

// TestDeleteReloadNeverServesOldIncarnation churns one name between two
// trees — delete, reload, with the commits' waits outside the writer mutex —
// while readers keep its result-cache entries hot. Once a reload is
// acknowledged, every read path must answer from the new tree; at no time
// may a reader see anything but one of the two trees or a 404.
func TestDeleteReloadNeverServesOldIncarnation(t *testing.T) {
	cl := startFileServer(t)
	ctx := context.Background()
	trees := []*phylo.Tree{yule(t, 60, 1), yule(t, 90, 2)}
	names := []string{"taxon000003", "taxon000041", "taxon000017", "taxon000058"}
	var want [2]incarnation
	for i, tree := range trees {
		if _, err := cl.LoadTreeCtx(ctx, "phoenix", 0, tree); err != nil {
			t.Fatal(err)
		}
		var err error
		if want[i], err = readIncarnation(ctx, cl, "phoenix", names); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := cl.DeleteCtx(ctx, "phoenix"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want[0] == want[1] {
		t.Fatal("the two trees answer alike: the test could not tell them apart")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := readIncarnation(ctx, cl, "phoenix", names)
				var ae *client.APIError
				if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
					continue // between a delete and its reload
				}
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				// The three reads are separate requests and may straddle a
				// reload; each on its own must be one tree's answer.
				if (got.leaves != want[0].leaves && got.leaves != want[1].leaves) ||
					(got.lca != want[0].lca && got.lca != want[1].lca) ||
					(got.newick != want[0].newick && got.newick != want[1].newick) {
					t.Errorf("reader saw an answer of neither tree: %+v", got)
					return
				}
			}
		}()
	}
	for round := 0; round < 40 && !t.Failed(); round++ {
		i := round % 2
		if err := cl.DeleteCtx(ctx, "phoenix"); err != nil {
			t.Fatalf("round %d: delete: %v", round, err)
		}
		if _, err := cl.LoadTreeCtx(ctx, "phoenix", 0, trees[i]); err != nil {
			t.Fatalf("round %d: reload: %v", round, err)
		}
		got, err := readIncarnation(ctx, cl, "phoenix", names)
		if err != nil {
			t.Fatalf("round %d: reading the reloaded tree: %v", round, err)
		}
		if got != want[i] {
			t.Fatalf("round %d: after the reload was acknowledged the server answered\n%+v\nwant the new tree's\n%+v", round, got, want[i])
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestFacadeReloadUnderAServedName: a tree dropped and reloaded through the
// facade — around the server, not through it — is what the server answers
// next. Its lca, project and clade equal a facade snapshot's, and no answer
// cached from the old incarnation is served.
func TestFacadeReloadUnderAServedName(t *testing.T) {
	for _, size := range [][2]int{{200, 300}, {2000, 500}} {
		t.Run(fmt.Sprintf("%d-to-%d", size[0], size[1]), func(t *testing.T) {
			repo, cl := startServer(t, crimson.ServerConfig{})
			ctx := context.Background()
			old, fresh := yule(t, size[0], 61), yule(t, size[1], 62)
			if _, err := repo.LoadTree("t", old, crimson.DefaultFanout, nil); err != nil {
				t.Fatal(err)
			}
			inOld := make(map[string]bool)
			for _, name := range old.LeafNames() {
				inOld[name] = true
			}
			names := fresh.LeafNames()
			sort.Strings(names)
			var both []string
			for _, name := range names {
				if inOld[name] {
					both = append(both, name)
				}
			}
			// Answers cached from the old tree, for species both trees have.
			var l client.LCAResponse
			var p client.ProjectResponse
			for rep := 0; rep < 3; rep++ {
				var err error
				if l, err = cl.LCACtx(ctx, "t", both[0], both[1]); err != nil {
					t.Fatal(err)
				}
				if p, err = cl.ProjectCtx(ctx, "t", both[:5]); err != nil {
					t.Fatal(err)
				}
			}
			if !l.Cached || !p.Cached {
				t.Fatalf("old tree, third repeat: lca cached %v, project cached %v", l.Cached, p.Cached)
			}

			if err := repo.Trees.Drop("t"); err != nil {
				t.Fatal(err)
			}
			if err := repo.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := repo.LoadTree("t", fresh, crimson.DefaultFanout, nil); err != nil {
				t.Fatal(err)
			}
			snap := repo.Snapshot()
			defer snap.Close()
			st, err := snap.Tree("t")
			if err != nil {
				t.Fatal(err)
			}

			spread := make([]string, 8) // across the new tree's names
			for i := range spread {
				spread[i] = names[i*(len(names)-1)/(len(spread)-1)]
			}
			pairs := [][2]string{{both[0], both[1]}}
			for i := 0; i+1 < len(spread); i++ {
				pairs = append(pairs, [2]string{spread[i], spread[i+1]})
			}
			for _, pair := range pairs {
				n, _, err := queryrepo.LCA{A: pair[0], B: pair[1], Tree: "t"}.Run(ctx, st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cl.LCACtx(ctx, "t", pair[0], pair[1])
				if err != nil {
					t.Fatalf("lca %v after the reload: %v", pair, err)
				}
				if want := (client.LCAResponse{Node: nodeOf(n)}); got != want {
					t.Fatalf("lca %v after the reload: the server answered\n%+v\nthe facade\n%+v", pair, got, want)
				}
			}
			for _, species := range [][]string{both[:5], spread} {
				_, newick, err := queryrepo.Project{Species: species, Tree: "t"}.Run(ctx, st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cl.ProjectCtx(ctx, "t", species)
				if err != nil {
					t.Fatalf("project %v after the reload: %v", species, err)
				}
				if got.Cached || got.Newick != newick {
					t.Fatalf("project %v after the reload: the server answered %+v, the facade %s", species, got, newick)
				}
			}
			nodes, leaves, _, err := queryrepo.Clade{Species: spread[:4], Tree: "t"}.Run(ctx, st)
			if err != nil {
				t.Fatal(err)
			}
			clade, err := cl.CladeCtx(ctx, "t", spread[:4])
			if err != nil {
				t.Fatalf("clade after the reload: %v", err)
			}
			want := client.CladeResponse{Root: nodeOf(nodes[0]), Nodes: len(nodes), Leaves: len(leaves), Species: leaves}
			if fmt.Sprint(clade) != fmt.Sprint(want) {
				t.Fatalf("clade after the reload: the server answered\n%+v\nthe facade\n%+v", clade, want)
			}
			// The new tree's answers are cached in their turn.
			if again, err := cl.LCACtx(ctx, "t", both[0], both[1]); err != nil || !again.Cached {
				t.Fatalf("repeat lca on the new tree: %+v, %v", again, err)
			}
		})
	}
}

// nodeOf is a stored node as the wire carries it.
func nodeOf(n treestore.Node) client.Node {
	return client.Node{ID: n.ID, Parent: n.Parent, Name: n.Name, Length: n.Length,
		Depth: n.Depth, Dist: n.Dist, Leaf: n.Leaf, Size: n.Size}
}

// TestServerAndFacadeShareWriterMutexes: a server and the repository it
// serves lock one set of writer mutexes. On a one-shard repository a server
// load and a facade load of one 5k-leaf tree run side by side — the
// facade's starts as the server's, its body parsed, starts to index — so
// they reach the shard's mutex together, one finds it held by the other's
// apply, and the write_waits.lock histogram counts the wait. With a mutex
// each, neither could wait. No caller code runs under a writer mutex, so
// neither side can be held still in its apply: a round whose loads did not
// overlap is run again.
func TestServerAndFacadeShareWriterMutexes(t *testing.T) {
	repo := crimson.OpenMem()
	defer repo.Close()
	tree := yule(t, 5000, 71)
	indexing := make(chan struct{}, 1)
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0", Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), ": building hierarchical index") {
			indexing <- struct{}{}
		}
	}})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	cl := client.New("http://"+srv.Addr(), nil)

	var names []string
	for round := 0; ; round++ {
		if round == 10 {
			t.Fatal("in 10 rounds of a server load and a facade load side by side on one shard, neither waited for the other's writer mutex")
		}
		server, facade := fmt.Sprintf("server%d", round), fmt.Sprintf("facade%d", round)
		names = append(names, server, facade)
		serverDone := make(chan error, 1)
		go func() {
			_, err := cl.LoadTreeCtx(context.Background(), server, 0, tree)
			serverDone <- err
		}()
		select {
		case <-indexing:
		case <-time.After(10 * time.Second):
			t.Fatal("the server load never started to index")
		}
		if _, err := repo.LoadTree(facade, tree, crimson.DefaultFanout, nil); err != nil {
			t.Fatalf("the facade load: %v", err)
		}
		select {
		case err := <-serverDone:
			if err != nil {
				t.Fatalf("the server load: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the server load did not finish")
		}
		stats, err := cl.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.WriteWaits["lock"].Count > 0 {
			t.Logf("a load waited for the other's mutex in round %d", round)
			break
		}
	}
	snap := repo.Snapshot()
	defer snap.Close()
	for _, name := range names {
		if _, err := snap.Tree(name); err != nil {
			t.Fatalf("tree %s: %v", name, err)
		}
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodyIs413: a body past MaxBodyBytes answers 413 on every
// route that reads one — a Newick and a NEXUS load, a species put and a
// pattern match — and the loads it cut short leave no tree behind.
func TestOversizedBodyIs413(t *testing.T) {
	repo := crimson.OpenMemSharded(testShards(t))
	defer repo.Close()
	srv := repo.NewServer(crimson.ServerConfig{MaxBodyBytes: 1024})
	defer srv.Shutdown(context.Background())
	newick := crimson.FormatNewick(yule(t, 200, 5))
	if len(newick) <= 1024 {
		t.Fatalf("a %d-byte Newick body is within the limit", len(newick))
	}
	for _, c := range []struct{ method, target, body string }{
		{"POST", "/v1/trees/x?format=newick", newick},
		{"POST", "/v1/trees/x?format=nexus", "#NEXUS\nBEGIN TREES;\n\tTREE x = " + newick + "\nEND;\n"},
		{"PUT", "/v1/trees/x/species/a/seq:x", strings.Repeat("ACGT", 512)},
		{"POST", "/v1/trees/x/match", newick},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a %d-byte body: %d %s, want 413", c.method, c.target, len(c.body), rec.Code, rec.Body)
		}
	}
	snap := repo.Snapshot()
	defer snap.Close()
	if _, err := snap.Tree("x"); !errors.Is(err, treestore.ErrNoTree) {
		t.Fatalf("tree x after the oversized loads: %v, want ErrNoTree", err)
	}
}
