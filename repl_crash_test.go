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
