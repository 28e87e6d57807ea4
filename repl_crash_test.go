package crimson_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
)

// This file is the replication crash matrix, run at every shard layout
// the suite covers (CRIMSON_TEST_SHARDS; CI runs 1 and 4):
//
//   - kill the follower mid-apply (copy its files while batches are
//     streaming in, abandon the handle) and reopen the copy as a new
//     follower: it must resume from its last locally-durable epoch and
//     converge to the primary, byte-identical exports included.
//   - kill the primary after the follower caught up and promote the
//     follower over HTTP: no epoch the primary had WAL-fsynced may be
//     lost, and the promoted repository must take writes with integrity
//     green.

// startReplPrimary opens a file-backed sharded repository and serves it.
func startReplPrimary(t *testing.T, shards int) (*crimson.Repository, *crimson.Server, string) {
	t.Helper()
	repo, err := crimson.OpenSharded(filepath.Join(t.TempDir(), "primary"), shards)
	if err != nil {
		t.Fatal(err)
	}
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		repo.Close()
		t.Fatal(err)
	}
	return repo, srv, "http://" + srv.Addr()
}

// exportNewick renders one stored tree to Newick text via the repository.
func exportNewick(t *testing.T, repo *crimson.Repository, name string) string {
	t.Helper()
	snap := repo.Snapshot()
	defer snap.Close()
	st, err := snap.Tree(name)
	if err != nil {
		t.Fatalf("tree %s: %v", name, err)
	}
	var sb strings.Builder
	if err := st.ExportNewickTo(context.Background(), &sb); err != nil {
		t.Fatalf("exporting %s: %v", name, err)
	}
	return sb.String()
}

// TestCrashMatrixReplFollowerKill kills a follower in the middle of a
// write churn and resurrects its files as a fresh follower: recovery must
// land on the last applied epoch, resume the stream from there, and
// converge to the primary's exact state.
func TestCrashMatrixReplFollowerKill(t *testing.T) {
	shards := matrixShards(t)
	repo, srv, url := startReplPrimary(t, shards)
	defer repo.Close()
	defer srv.Shutdown(context.Background())
	cl := client.New(url, nil)
	ctx := context.Background()

	trees := []string{"kfa", "kfb", "kfc"}
	for i, name := range trees {
		gold, err := crimson.GenerateYule(150+40*i, 1.0, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.LoadTreeCtx(ctx, name, 0, gold); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
	}

	fdir := filepath.Join(t.TempDir(), "follower")
	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	frepo, fl, err := crimson.OpenFollower(fctx, fdir, url)
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	// Pin the follower's checkpointer off so its applied history stays in
	// its WALs: the kill lands mid-apply with recovery doing real work.
	frepo.SetCheckpointPolicy(1<<40, time.Hour)

	// Churn on the primary while the copy happens: the copied files are
	// whatever instant the kill caught, applied batches still in flight.
	want := map[string]string{}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			sp := fmt.Sprintf("churn-%03d", i)
			val := "v:" + sp
			if err := cl.PutSpeciesDataCtx(ctx, trees[i%len(trees)], sp, "seq:test", []byte(val)); err != nil {
				done <- fmt.Errorf("churn put %d: %w", i, err)
				return
			}
			want[sp] = val
		}
		done <- nil
	}()
	time.Sleep(20 * time.Millisecond) // land the kill inside the churn window
	copied := copyRepoFiles(t, fdir)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Kill: abandon the first follower without a clean stop.
	fl.Stop()
	frepo.Close()

	frepo2, fl2, err := crimson.OpenFollower(ctx, copied, url)
	if err != nil {
		t.Fatalf("reopening killed follower: %v", err)
	}
	defer frepo2.Close()
	defer fl2.Stop()

	// Converge: the primary is quiescent, so synced means caught up.
	pShards := repo.MVCCShards()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for i, sh := range fl2.Status().Shards {
			if sh.Epoch < pShards[i].Epoch {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resurrected follower never converged: %+v vs primary %+v", fl2.Status(), pShards)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, name := range trees {
		if p, f := exportNewick(t, repo, name), exportNewick(t, frepo2, name); p != f {
			t.Fatalf("tree %s differs on the resurrected follower (%d vs %d bytes)", name, len(p), len(f))
		}
	}
	snap := frepo2.Snapshot()
	defer snap.Close()
	for i := 0; i < 40; i++ {
		sp := fmt.Sprintf("churn-%03d", i)
		data, err := snap.SpeciesView.Get(trees[i%len(trees)], sp, "seq:test")
		if err != nil {
			t.Fatalf("churn row %s lost across the kill: %v", sp, err)
		}
		if string(data) != want[sp] {
			t.Fatalf("churn row %s = %q, want %q", sp, data, want[sp])
		}
	}
	if err := frepo2.Check(); err != nil {
		t.Fatalf("post-resurrection integrity: %v", err)
	}
}

// TestReplFollowerRestartResyncsBySnapshot stops a synced follower, lets
// the primary commit more, and reopens the follower's directory. The
// publisher's ring holds nothing while no follower is connected, so the
// restarted follower catches up by a snapshot over its own files — even
// though the primary, never checkpointed, still has every batch in its log —
// and must converge with integrity green.
func TestReplFollowerRestartResyncsBySnapshot(t *testing.T) {
	shards := matrixShards(t)
	repo, srv, url := startReplPrimary(t, shards)
	defer repo.Close()
	defer srv.Shutdown(context.Background())
	repo.SetCheckpointPolicy(1<<40, time.Hour)
	cl := client.New(url, nil)
	ctx := context.Background()

	gold, err := crimson.GenerateYule(200, 1.0, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "rs", 0, gold); err != nil {
		t.Fatal(err)
	}
	fdir := filepath.Join(t.TempDir(), "follower")
	frepo, fl, err := crimson.OpenFollower(ctx, fdir, url)
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	fl.Stop()
	if err := frepo.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the primary to drop the stopped follower's streams: a stream
	// still registered would keep the ring filling.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.ReplStatusCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		subs := 0
		for _, sh := range st.Shards {
			subs += sh.Subscribers
		}
		if subs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the primary still streams to the stopped follower: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i := 0; i < 10; i++ {
		sp := fmt.Sprintf("later-%03d", i)
		if err := cl.PutSpeciesDataCtx(ctx, "rs", sp, "seq:test", []byte("v:"+sp)); err != nil {
			t.Fatal(err)
		}
	}
	pShards := repo.MVCCShards()
	shipped := crimson.EngineCounters()["repl_snapshot_pages"]

	frepo, fl, err = crimson.OpenFollower(ctx, fdir, url)
	if err != nil {
		t.Fatalf("reopening follower: %v", err)
	}
	defer frepo.Close()
	defer fl.Stop()
	deadline = time.Now().Add(30 * time.Second)
	for i, sh := range fl.Status().Shards {
		for sh.Epoch < pShards[i].Epoch {
			if time.Now().After(deadline) {
				t.Fatalf("restarted follower never converged: %+v vs %+v", fl.Status(), pShards)
			}
			time.Sleep(5 * time.Millisecond)
			sh = fl.Status().Shards[i]
		}
	}
	if crimson.EngineCounters()["repl_snapshot_pages"] == shipped {
		t.Fatal("the restarted follower shipped no snapshot pages")
	}
	if p, f := exportNewick(t, repo, "rs"), exportNewick(t, frepo, "rs"); p != f {
		t.Fatalf("tree rs differs on the restarted follower (%d vs %d bytes)", len(p), len(f))
	}
	snap := frepo.Snapshot()
	defer snap.Close()
	for i := 0; i < 10; i++ {
		sp := fmt.Sprintf("later-%03d", i)
		if data, err := snap.SpeciesView.Get("rs", sp, "seq:test"); err != nil || string(data) != "v:"+sp {
			t.Fatalf("row %s on the restarted follower: %q err=%v", sp, data, err)
		}
	}
	if err := frepo.Check(); err != nil {
		t.Fatalf("restarted follower integrity: %v", err)
	}
}

// TestCrashMatrixReplPromote kills the primary once the follower has
// caught up and promotes the follower through the real server path: every
// epoch the primary had WAL-fsynced must survive, and the promoted
// repository must be writable with integrity green.
func TestCrashMatrixReplPromote(t *testing.T) {
	shards := matrixShards(t)
	repo, srv, url := startReplPrimary(t, shards)
	cl := client.New(url, nil)
	ctx := context.Background()

	gold, err := crimson.GenerateYule(300, 1.0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "pp", 0, gold); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 25; i++ {
		sp := fmt.Sprintf("row-%03d", i)
		want[sp] = "v:" + sp
		if err := cl.PutSpeciesDataCtx(ctx, "pp", sp, "seq:test", []byte(want[sp])); err != nil {
			t.Fatal(err)
		}
	}
	goldNewick := exportNewick(t, repo, "pp")
	// Every epoch below is WAL-fsynced: the puts above returned.
	pShards := repo.MVCCShards()

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	frepo, fl, err := crimson.OpenFollower(fctx, filepath.Join(t.TempDir(), "follower"), url)
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	defer frepo.Close()
	fsrv := frepo.NewFollowerServer(fl, crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := fsrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer fsrv.Shutdown(context.Background())
	fcl := client.New("http://"+fsrv.Addr(), nil)

	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for i, sh := range fl.Status().Shards {
			if sh.Epoch < pShards[i].Epoch {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached the primary's fsynced epochs: %+v vs %+v", fl.Status(), pShards)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary: streams cut, no more batches ever.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("killing primary: %v", err)
	}
	repo.Close()

	st, err := fcl.PromoteCtx(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != "primary" {
		t.Fatalf("promoted role = %q", st.Role)
	}
	for i, sh := range st.Shards {
		if sh.Epoch < pShards[i].Epoch {
			t.Fatalf("promoted shard %d at epoch %d: lost fsynced epoch %d", i, sh.Epoch, pShards[i].Epoch)
		}
	}

	// Nothing lost, still byte-identical, and the promoted repo is live.
	if got := exportNewick(t, frepo, "pp"); got != goldNewick {
		t.Fatal("promoted tree export differs from the dead primary's")
	}
	snap := frepo.Snapshot()
	for sp, val := range want {
		data, err := snap.SpeciesView.Get("pp", sp, "seq:test")
		if err != nil || string(data) != val {
			t.Fatalf("row %s after promote: %q err=%v", sp, data, err)
		}
	}
	snap.Close()
	if err := fcl.PutSpeciesDataCtx(ctx, "pp", "after-kill", "seq:test", []byte("alive")); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	if err := frepo.Check(); err != nil {
		t.Fatalf("post-promote integrity: %v", err)
	}
}

// TestCrashMatrixReplPromoteAfterCatchUp promotes a follower whose only
// replication was a snapshot catch-up: the primary drops a tree (its pages
// listed, spilling into trunk pages) and checkpoints, a new follower catches
// up from the page file, then the primary dies with no batch after it. The catch-up shipped the
// pinned epoch's own meta page and trunk pages, so Check accounts for
// every follower page before and after the promote, and reloading the
// dropped tree reuses the primary's listed pages instead of growing the
// files.
func TestCrashMatrixReplPromoteAfterCatchUp(t *testing.T) {
	shards := matrixShards(t)
	repo, srv, url := startReplPrimary(t, shards)
	cl := client.New(url, nil)
	ctx := context.Background()

	keep, err := crimson.GenerateYule(300, 1.0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	drop, err := crimson.GenerateYule(6000, 1.0, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "keep", 0, keep); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "drop", 0, drop); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteCtx(ctx, "drop"); err != nil {
		t.Fatal(err)
	}
	if err := repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pShards := repo.MVCCShards()
	shipped := crimson.EngineCounters()["repl_snapshot_pages"]

	fdir := filepath.Join(t.TempDir(), "follower")
	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	frepo, fl, err := crimson.OpenFollower(fctx, fdir, url)
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	defer frepo.Close()
	fsrv := frepo.NewFollowerServer(fl, crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := fsrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer fsrv.Shutdown(context.Background())
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for i, sh := range fl.Status().Shards {
			if sh.Epoch < pShards[i].Epoch {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v vs %+v", fl.Status(), pShards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if crimson.EngineCounters()["repl_snapshot_pages"] == shipped {
		t.Fatal("the follower shipped no snapshot pages; the test needs a snapshot catch-up")
	}
	if err := frepo.Check(); err != nil {
		t.Fatalf("follower integrity after the catch-up: %v", err)
	}

	// Kill the primary: no batch follows the catch-up.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	repo.Close()
	if _, err := client.New("http://"+fsrv.Addr(), nil).PromoteCtx(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := frepo.Check(); err != nil {
		t.Fatalf("post-promote integrity: %v", err)
	}
	size := pageFileBytes(t, fdir)
	if _, err := frepo.LoadTree("drop", drop, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	if err := frepo.Check(); err != nil {
		t.Fatalf("integrity after reloading into the listed pages: %v", err)
	}
	if grown := pageFileBytes(t, fdir); grown > size {
		t.Fatalf("reloading the dropped tree on the promoted follower grew its page files from %d to %d bytes", size, grown)
	}
}

// TestFacadeFollowerWritesAfterPromote promotes a follower opened through
// the facade, with no server over it, and writes through the same
// Repository: a species put, the delete of a tree that replicated after the
// follower opened, and a load whose history record lands on its tree's
// shard with the first id past the largest replicated one. Each writer
// resolves its tables at its first write after the promote.
func TestFacadeFollowerWritesAfterPromote(t *testing.T) {
	shards := matrixShards(t)
	repo, srv, url := startReplPrimary(t, shards)
	defer repo.Close()
	defer srv.Shutdown(context.Background())
	cl := client.New(url, nil)
	ctx := context.Background()

	gen := func(n int, seed int64) *crimson.Tree {
		t.Helper()
		tr, err := crimson.GenerateYule(n, 1.0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if _, err := cl.LoadTreeCtx(ctx, "early", 0, gen(120, 31)); err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	frepo, fl, err := crimson.OpenFollower(fctx, filepath.Join(t.TempDir(), "follower"), url)
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	defer frepo.Close()
	defer fl.Stop()
	if _, err := cl.LoadTreeCtx(ctx, "late", 0, gen(150, 32)); err != nil {
		t.Fatal(err)
	}
	pShards := repo.MVCCShards()
	deadline := time.Now().Add(30 * time.Second)
	for i, sh := range fl.Status().Shards {
		for sh.Epoch < pShards[i].Epoch {
			if time.Now().After(deadline) {
				t.Fatalf("follower never converged: %+v vs %+v", fl.Status(), pShards)
			}
			time.Sleep(5 * time.Millisecond)
			sh = fl.Status().Shards[i]
		}
	}
	replicated := frepo.Snapshot()
	last, err := replicated.QueryView.History(ctx, 1)
	replicated.Close()
	if err != nil || len(last) != 1 {
		t.Fatalf("the follower's newest replicated history entry: %+v, %v", last, err)
	}
	if err := fl.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	if err := frepo.Species.Put("early", "sp1", "seq:test", []byte("after promote")); err != nil {
		t.Errorf("Species.Put after promote: %v", err)
	}
	if err := frepo.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := frepo.Trees.Delete("late"); err != nil {
		t.Errorf("Trees.Delete of a tree replicated after the open: %v", err)
	}
	load := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		_, err = frepo.LoadTree("after", gen(80, 33), crimson.DefaultFanout, nil)
		return err
	}
	if err := load(); err != nil {
		t.Fatalf("LoadTree after promote: %v", err)
	}

	snap := frepo.Snapshot()
	defer snap.Close()
	if data, err := snap.SpeciesView.Get("early", "sp1", "seq:test"); err != nil || string(data) != "after promote" {
		t.Errorf("species record after promote: %q err=%v", data, err)
	}
	if _, err := snap.Tree("late"); err == nil {
		t.Error("tree late is still there after its delete")
	}
	if _, err := snap.Tree("after"); err != nil {
		t.Errorf("tree loaded after promote: %v", err)
	}
	hist, err := snap.QueryView.History(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Kind != "load" || !strings.Contains(hist[0].Args, `"tree":"after"`) {
		t.Errorf("newest history entry after the load: %+v", hist)
	} else if hist[0].ID != last[0].ID+1 {
		t.Errorf("first id after the promote is %d, want one past the largest replicated id %d", hist[0].ID, last[0].ID)
	}
	if err := frepo.Check(); err != nil {
		t.Fatalf("post-promote integrity: %v", err)
	}
}
