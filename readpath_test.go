package crimson_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	crimson "repro"
	"repro/internal/treestore"
)

// TestReadCacheChurnSnapshotIsolation hammers the version-keyed read cache
// with churn: one writer repeatedly deletes and reloads the same tree name
// (a different tree at a different depth bound each round) while eight
// readers open a snapshot per query and one snapshot taken before the churn
// keeps reading the original version. The cache keys by (page, epoch), so
// the old snapshot must keep seeing the old tree bit-for-bit while every new
// one sees a complete version — old or new, checked against the in-memory
// engine — or, between a delete and its reload, no tree at all.
// Runs at 1 and 4 shards; the -race build is the point of this test.
func TestReadCacheChurnSnapshotIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			repo := crimson.OpenMemSharded(shards)
			defer repo.Close()
			repo.SetReadCacheMB(8)

			const name = "churn"
			versions := make([]*goldVersion, 4)
			for i, f := range []int{crimson.DefaultFanout, 4, 8, 3} {
				versions[i] = newGoldVersion(t, 400+100*i, f, int64(100+i))
			}
			load := func(round int) error {
				v := versions[round%len(versions)]
				_, err := repo.LoadTree(name, v.tree, v.f, nil)
				return err
			}
			if err := load(0); err != nil {
				t.Fatal(err)
			}

			snap := repo.Snapshot()
			defer snap.Close()
			snapTree, err := snap.Tree(name)
			if err != nil {
				t.Fatal(err)
			}
			wantExport, err := snapTree.ExportCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			fail := func(format string, a ...any) {
				select {
				case errs <- fmt.Errorf(format, a...):
				default:
				}
			}

			// Writer: delete + reload a different version each round.
			const rounds = 8
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for round := 1; round <= rounds; round++ {
					if err := repo.Trees.Delete(name); err != nil {
						fail("delete round %d: %v", round, err)
						return
					}
					if err := load(round); err != nil {
						fail("reload round %d: %v", round, err)
						return
					}
				}
			}()

			// Readers on new snapshots: no tree, or some version, whole.
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						sn := repo.Snapshot()
						st, err := sn.Tree(name)
						if err == nil {
							err = checkWhole(context.Background(), st, versions, rng)
						}
						sn.Close()
						if err != nil && !errors.Is(err, treestore.ErrNoTree) {
							fail("reader %d: %v", seed, err)
							return
						}
					}
				}(int64(r))
			}

			// Snapshot reader: pinned to the pre-churn version throughout.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load() || i < 1; i++ {
					info := snapTree.Info()
					if got := info.Leaves; got != versions[0].tree.NumLeaves() {
						fail("snapshot saw %d leaves, want %d", got, versions[0].tree.NumLeaves())
						return
					}
					got, err := snapTree.ExportCtx(context.Background())
					if err != nil {
						fail("snapshot export: %v", err)
						return
					}
					if crimson.FormatNewick(got) != crimson.FormatNewick(wantExport) {
						fail("snapshot export drifted from the pre-churn tree")
						return
					}
				}
			}()

			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// After the dust settles a new snapshot reads the writer's last
			// version, end to end.
			st := openTree(t, repo, name)
			if err := checkWhole(context.Background(), st, versions[rounds%len(versions):][:1], rand.New(rand.NewSource(9))); err != nil {
				t.Fatalf("final tree: %v", err)
			}
			if entries, bytes := repo.ReadCacheStats(); entries > 0 && bytes <= 0 {
				t.Fatalf("cache stats inconsistent: %d entries, %d bytes", entries, bytes)
			}
		})
	}
}
