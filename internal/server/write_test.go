package server_test

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	crimson "repro"
	"repro/client"
	"repro/internal/phylo"
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
// only a store with a WAL has the window between capture and publish the
// version ordering is about.
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

// incarnation is what the three cached read paths answer for one stored
// tree: Info goes through the handle cache, LCA and Project through the
// result cache.
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
// while readers keep its handle and result-cache entries hot and keep
// re-seeding its version. Once a reload is acknowledged, every cached path
// must answer from the new tree; at no time may a reader see anything but
// one of the two trees or a 404.
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
