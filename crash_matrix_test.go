package crimson_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	crimson "repro"
	"repro/internal/treestore"
)

// This file is the facade-level crash matrix for the durability pipeline:
// with the async checkpointer pinned off, a repository is killed (by
// copying its files and abandoning the handle) right after its WAL fsyncs,
// right after an explicit checkpoint, or with one more load applied and its
// commit captured but not yet flushed, at every shard layout the suite runs
// at (CRIMSON_TEST_SHARDS; CI runs 1 and 4). Recovery must land on the last
// committed state in all six cells.

// matrixShards honors CRIMSON_TEST_SHARDS the way the server E2E suite
// does: 1 by default, whatever the variable says otherwise.
func matrixShards(t *testing.T) int {
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

// copyRepoFiles snapshots a repository's on-disk state — single page file
// plus WAL, or a sharded directory tree — into a fresh location, exactly
// as a kill would leave it.
func copyRepoFiles(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	st, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsDir() {
		copyFile(t, src, dst)
		if _, err := os.Stat(src + ".wal"); err == nil {
			copyFile(t, src+".wal", dst+".wal")
		}
		return dst
	}
	err = filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		copyFile(t, path, target)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixFacade loads trees and species data across the configured
// shard layout, crashes at two pipeline stages, and proves recovery is
// identical: the WAL-only copy (checkpointer pinned off — page files
// arbitrarily stale) and the checkpointed copy (page files current, WALs
// empty) both reopen to the same committed state with integrity green.
func TestCrashMatrixFacade(t *testing.T) {
	shards := matrixShards(t)
	for _, stage := range []string{"after-wal-fsync", "after-checkpoint", "after-capture"} {
		t.Run(stage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "repo")
			repo, err := crimson.OpenSharded(path, shards)
			if err != nil {
				t.Fatal(err)
			}
			// Pin the background checkpointer off: whether the page files
			// catch up is decided by this test, not a timer.
			repo.SetCheckpointPolicy(1<<40, time.Hour)

			names := []string{"alpha", "beta", "gamma", "delta"}
			leaves := map[string]int{}
			for i, name := range names {
				tree, err := crimson.GenerateYule(60+15*i, 1.0, rand.New(rand.NewSource(int64(i+1))))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := repo.LoadTree(name, tree, crimson.DefaultFanout, nil); err != nil {
					t.Fatalf("loading %s: %v", name, err)
				}
				leaves[name] = tree.NumLeaves()
				if err := repo.Species.Put(name, "sp1", "seq:test", []byte("ACGT-"+name)); err != nil {
					t.Fatal(err)
				}
			}
			if err := repo.Commit(); err != nil {
				t.Fatal(err)
			}
			epoch := repo.MVCC().Epoch

			switch stage {
			case "after-wal-fsync":
				if repo.CheckpointBacklog() == 0 {
					t.Fatal("no checkpoint backlog — the WAL-only stage is not exercising stale page files")
				}
			case "after-checkpoint":
				if err := repo.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if got := repo.WALSize(); got != 0 {
					t.Fatalf("WALs hold %d bytes after checkpoint, want 0", got)
				}
			case "after-capture":
				// A load dies between the capture of its commit and the WAL
				// fsync: the tree is applied and its transaction queued for
				// the next group flush, which never comes. Recovery is the
				// previous epoch, without the tree.
				tree, err := crimson.GenerateYule(120, 1.0, rand.New(rand.NewSource(99)))
				if err != nil {
					t.Fatal(err)
				}
				p, err := repo.Trees.PrepareLoad("doomed", tree, crimson.DefaultFanout, crimson.LoadOptions{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Apply(); err != nil {
					t.Fatal(err)
				}
				repo.CommitAsync() // captured, never waited for
			}
			copied := copyRepoFiles(t, path)
			// Crash: the original handle is abandoned, never closed.

			reopened, err := crimson.OpenSharded(copied, shards)
			if err != nil {
				t.Fatalf("reopening %s crash copy: %v", stage, err)
			}
			defer reopened.Close()
			if got := reopened.MVCC().Epoch; got != epoch {
				t.Fatalf("recovered epoch %d, want %d", got, epoch)
			}
			snap := reopened.Snapshot()
			defer snap.Close()
			for name, n := range leaves {
				st, err := snap.Tree(name)
				if err != nil {
					t.Fatalf("tree %s lost in %s crash: %v", name, stage, err)
				}
				if st.Info().Leaves != n {
					t.Fatalf("tree %s recovered with %d leaves, want %d", name, st.Info().Leaves, n)
				}
				data, err := snap.SpeciesView.Get(name, "sp1", "seq:test")
				if err != nil {
					t.Fatalf("species row for %s lost in %s crash: %v", name, stage, err)
				}
				if string(data) != "ACGT-"+name {
					t.Fatalf("species row for %s recovered as %q", name, data)
				}
			}
			if _, err := snap.Tree("doomed"); !errors.Is(err, treestore.ErrNoTree) {
				t.Fatalf("a load that never reached the WAL recovered: %v", err)
			}
			if err := reopened.Check(); err != nil {
				t.Fatalf("post-recovery integrity after %s crash: %v", stage, err)
			}
		})
	}
}
