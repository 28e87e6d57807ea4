package crimson_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	crimson "repro"
)

// TestLoadTreeDurability pins the facade's durability contract: LoadTree,
// like LoadNexus, commits before returning, so a load survives a crash
// where the process never calls Commit or Close. The "crash" here is
// abandoning the first repository handle and reopening the page file.
func TestLoadTreeDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.crimson")
	repo, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := crimson.GenerateYule(80, 1.0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("gold", tree, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	// No Commit, no Close: the handle is abandoned as a crash would.

	reopened, err := crimson.Open(path)
	if err != nil {
		t.Fatalf("reopening after simulated crash: %v", err)
	}
	defer reopened.Close()

	snap := snapshotOf(t, reopened)
	st, err := snap.Tree("gold")
	if err != nil {
		t.Fatalf("tree lost without explicit Commit: %v", err)
	}
	if st.Info().Leaves != 80 {
		t.Fatalf("reloaded tree has %d leaves, want 80", st.Info().Leaves)
	}
	// The load's query-history record must have been committed too.
	entries, err := snap.QueryView.ByKind(context.Background(), "load")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("history has %d load entries, want 1 (record not durable)", len(entries))
	}
}

// TestCrashAfterCOWCommitWithActiveReaders simulates a kill while the MVCC
// machinery is mid-flight: the first tree is committed, a snapshot reader
// pins that epoch (so the second load's copy-on-write rewrites retire
// pages instead of reusing them), a second tree commits on top, and the
// process dies with the snapshot still open. Reopening must land on the
// last published state — both trees whole, epoch advanced, full integrity
// check green — and the never-released snapshot pin must be irrelevant
// after restart.
func TestCrashAfterCOWCommitWithActiveReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.crimson")
	repo, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := crimson.GenerateYule(150, 1.0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("first", first, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}

	// Active reader: pins the epoch of the first commit and keeps reading
	// through the second load.
	sn := repo.Snapshot()
	epochBefore := sn.Epoch()

	second, err := crimson.GenerateYule(300, 1.0, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("second", second, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still reads its own epoch: it sees the first
	// tree and not the second.
	if _, err := sn.Tree("second"); err == nil {
		t.Fatal("snapshot taken before the second load sees it")
	}
	st, err := sn.Tree("first")
	if err != nil {
		t.Fatal(err)
	}
	if st.Info().Leaves != 150 {
		t.Fatalf("snapshot first tree has %d leaves, want 150", st.Info().Leaves)
	}
	if repo.MVCC().Epoch <= epochBefore {
		t.Fatal("epoch did not advance across the second load")
	}

	// Crash: abandon the repository with the snapshot still open — no
	// Close, no snapshot release.

	reopened, err := crimson.Open(path)
	if err != nil {
		t.Fatalf("reopening after simulated crash: %v", err)
	}
	defer reopened.Close()
	if got := reopened.MVCC().Epoch; got <= epochBefore {
		t.Fatalf("recovered epoch %d, want past %d (last published root lost)", got, epochBefore)
	}
	if reopened.MVCC().OpenSnapshots != 0 {
		t.Fatal("recovered store inherited a snapshot pin")
	}
	snap := reopened.Snapshot()
	defer snap.Close()
	for name, leaves := range map[string]int{"first": 150, "second": 300} {
		st, err := snap.Tree(name)
		if err != nil {
			t.Fatalf("tree %s lost in crash: %v", name, err)
		}
		if st.Info().Leaves != leaves {
			t.Fatalf("tree %s has %d leaves after recovery, want %d", name, st.Info().Leaves, leaves)
		}
	}
	if err := reopened.Check(); err != nil {
		t.Fatalf("post-recovery integrity: %v", err)
	}
}
