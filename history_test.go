package crimson_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	crimson "repro"
	"repro/internal/shard"
)

// epochDeltas is how far each shard's epoch moved from before to after: one
// per commit that shard published.
func epochDeltas(before, after []crimson.MVCCStats) []uint64 {
	out := make([]uint64, len(after))
	for i := range after {
		out[i] = after[i].Epoch - before[i].Epoch
	}
	return out
}

// TestWriteIsOneCommit: a write's history entry rides in its own shard's
// transaction. At 1 and 4 shards every facade LoadTree is one commit and
// one WAL fsync, and a crimsond DELETE is two commits on its tree's shard
// (the drop with its entry, then the species cleanup) and none on any
// other.
func TestWriteIsOneCommit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			repo, err := crimson.OpenSharded(filepath.Join(t.TempDir(), "repo"), shards)
			if err != nil {
				t.Fatal(err)
			}
			defer repo.Close()
			repo.SetCheckpointPolicy(1<<40, time.Hour)
			counts := func() (commits, syncs int64) {
				c := crimson.EngineCounters()
				return c["commits"], c["wal_syncs"]
			}

			home := map[string]int{} // tree name -> the shard its load committed on
			for i := 0; i < 8; i++ {
				tree, err := crimson.GenerateYule(200, 1.0, rand.New(rand.NewSource(int64(i+1))))
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("t%d", i)
				shardsBefore := repo.MVCCShards()
				commits, syncs := counts()
				if _, err := repo.LoadTree(name, tree, crimson.DefaultFanout, nil); err != nil {
					t.Fatal(err)
				}
				commitsAfter, syncsAfter := counts()
				if d := commitsAfter - commits; d != 1 {
					t.Errorf("LoadTree(%s) made %d commits, want 1", name, d)
				}
				if d := syncsAfter - syncs; d != 1 {
					t.Errorf("LoadTree(%s) made %d WAL fsyncs, want 1", name, d)
				}
				for si, d := range epochDeltas(shardsBefore, repo.MVCCShards()) {
					if d != 0 {
						home[name] = si
					}
				}
			}

			srv := repo.NewServer(crimson.ServerConfig{})
			defer srv.Shutdown(context.Background())
			const name = "t3"
			if err := repo.Species.Put(name, "sp1", "seq:test", []byte("ACGT")); err != nil {
				t.Fatal(err)
			}
			if err := repo.Commit(); err != nil {
				t.Fatal(err)
			}
			before := repo.MVCCShards()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/trees/"+name, nil))
			if rec.Code != http.StatusNoContent {
				t.Fatalf("DELETE: %d %s", rec.Code, rec.Body)
			}
			for si, d := range epochDeltas(before, repo.MVCCShards()) {
				want := uint64(0)
				if si == home[name] {
					want = 2
				}
				if d != want {
					t.Errorf("DELETE of a tree on shard %d made %d commits on shard %d, want %d", home[name], d, si, want)
				}
			}
		})
	}
}

// TestTornShardsKeepLoadAndEntryTogether: a crash copy whose shard 0
// predates a load placed on another shard, and whose other shards postdate
// it, holds the tree and its load's history entry both: the two are one
// commit of the tree's shard, never one without the other.
func TestTornShardsKeepLoadAndEntryTogether(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo")
	repo, err := crimson.OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	repo.SetCheckpointPolicy(1<<40, time.Hour)

	router, err := shard.NewRouter(4)
	if err != nil {
		t.Fatal(err)
	}
	name := "tree0"
	for i := 1; router.Place(name) == 0; i++ {
		name = fmt.Sprintf("tree%d", i)
	}
	tree, err := crimson.GenerateYule(150, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	early := copyRepoFiles(t, path)
	if _, err := repo.LoadTree(name, tree, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	torn := copyRepoFiles(t, path)
	if err := os.RemoveAll(shard.Dir(torn, 0)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(shard.Dir(early, 0), shard.Dir(torn, 0)); err != nil {
		t.Fatal(err)
	}

	reopened, err := crimson.OpenSharded(torn, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	snap := reopened.Snapshot()
	defer snap.Close()
	_, terr := snap.Tree(name)
	loads, err := snap.QueryView.ByKind(context.Background(), "load")
	if err != nil {
		t.Fatal(err)
	}
	entry := false
	for _, e := range loads {
		entry = entry || strings.Contains(e.Args, fmt.Sprintf(`"tree":%q`, name))
	}
	if terr != nil || !entry {
		t.Fatalf("torn copy: tree %s present=%v (%v), its load entry present=%v; want both", name, terr == nil, terr, entry)
	}
	if err := reopened.Check(); err != nil {
		t.Fatal(err)
	}
}
