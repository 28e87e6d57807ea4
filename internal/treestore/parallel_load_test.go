package treestore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/phylo"
	"repro/internal/relstore"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/treegen"
)

func loadShapes(t *testing.T) map[string]*phylo.Tree {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	shapes := map[string]*phylo.Tree{}
	yule, err := treegen.Yule(600, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	shapes["yule"] = yule
	cat, err := treegen.Caterpillar(300, r)
	if err != nil {
		t.Fatal(err)
	}
	shapes["caterpillar"] = cat
	shapes["single-leaf"] = phylo.New(&phylo.Node{Name: "only"})
	return shapes
}

// loadDump captures everything a load writes: the Newick export bytes and
// every node row (dewey label fields, preorder ids, subtree sizes
// included).
func loadDump(t *testing.T, tr *phylo.Tree, workers int) (string, []Node) {
	t.Helper()
	s := OpenMem()
	defer s.Close()
	if _, err := s.LoadOpts("t", tr, 3, LoadOptions{Workers: workers}, nil); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	st := openTreeOf(t, s, "t")
	var sb strings.Builder
	if err := st.ExportNewickTo(context.Background(), &sb); err != nil {
		t.Fatalf("workers=%d: export: %v", workers, err)
	}
	var rows []Node
	err := st.nodes.ScanCtx(context.Background(), appendNodes(&rows))
	if err != nil {
		t.Fatalf("workers=%d: scan: %v", workers, err)
	}
	for _, db := range s.dbs {
		if err := db.Check(); err != nil {
			t.Fatalf("workers=%d: check: %v", workers, err)
		}
	}
	return sb.String(), rows
}

// TestLoadWorkersDeterministic asserts a parallel load is bit-for-bit
// identical to the serial one at every worker count: same exported Newick
// bytes, same node rows (labels, preorder ids, subtree sizes), and index
// integrity verified by Check.
func TestLoadWorkersDeterministic(t *testing.T) {
	for name, tr := range loadShapes(t) {
		t.Run(name, func(t *testing.T) {
			wantExport, wantRows := loadDump(t, tr, 1)
			for _, workers := range []int{2, 4, 8} {
				gotExport, gotRows := loadDump(t, tr, workers)
				if gotExport != wantExport {
					t.Fatalf("workers=%d: exported Newick differs from serial load", workers)
				}
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("workers=%d: node rows differ from serial load", workers)
				}
			}
		})
	}
}

// pageFileAfter runs load on a fresh file-backed repository, checkpoints,
// closes it and returns the page file's bytes.
func pageFileAfter(t *testing.T, load func(s *Store)) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	load(s)
	if err := s.dbs[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestLoadPageFilesIdentical compares page files byte for byte: a staged
// load (typed rows straight into arenas, prefix-sorted runs, prepare and
// apply apart) at several worker counts, against the same relations put
// there by plain BulkInsert calls of boxed Rows in the same order. The Rows
// come from scanning a loaded tree, so they owe nothing to the staging code.
func TestLoadPageFilesIdentical(t *testing.T) {
	for name, tr := range loadShapes(t) {
		t.Run(name, func(t *testing.T) {
			ref := OpenMem()
			defer ref.Close()
			if _, err := ref.LoadOpts("t", tr, 3, LoadOptions{Workers: 1}, nil); err != nil {
				t.Fatal(err)
			}
			st := openTreeOf(t, ref, "t")
			schemas := []relstore.Schema{nodesSchema("t")}
			tables := []*relstore.TableView{st.nodes}
			for k, sub := range st.subs {
				schemas, tables = append(schemas, subsSchema("t", k)), append(tables, sub)
				if k > 0 {
					schemas, tables = append(schemas, layerSchema("t", k)), append(tables, st.layers[k-1])
				}
			}
			boxed := pageFileAfter(t, func(s *Store) {
				db := s.dbs[0]
				for i, schema := range schemas {
					var rows []relstore.Tuple
					err := tables[i].ScanCtx(context.Background(), func(row relstore.Row) (bool, error) {
						vals, err := row.Tuple()
						rows = append(rows, vals)
						return true, err
					})
					if err != nil {
						t.Fatal(err)
					}
					tab, err := db.CreateTable(schema)
					if err != nil {
						t.Fatal(err)
					}
					if err := tab.BulkInsert(rows); err != nil {
						t.Fatal(err)
					}
				}
				trees, err := db.Table("trees")
				if err != nil {
					t.Fatal(err)
				}
				info := st.Info()
				err = trees.Insert(relstore.Tuple{relstore.Str("t"), relstore.Int(int64(info.Nodes)), relstore.Int(int64(info.Leaves)),
					relstore.Int(int64(info.F)), relstore.Int(int64(info.Layers)), relstore.Int(int64(info.Depth))})
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Commit(); err != nil {
					t.Fatal(err)
				}
			})
			for _, workers := range []int{1, 4} {
				staged := pageFileAfter(t, func(s *Store) {
					if _, err := s.LoadOpts("t", tr, 3, LoadOptions{Workers: workers}, nil); err != nil {
						t.Fatal(err)
					}
				})
				if !bytes.Equal(staged, boxed) {
					t.Fatalf("workers=%d: staged load's page file (%d bytes) differs from the BulkInsert load's (%d bytes)",
						workers, len(staged), len(boxed))
				}
			}
		})
	}
}

// committedTables lists the tables of db's committed state.
func committedTables(t *testing.T, db *relstore.DB) []string {
	t.Helper()
	sn := db.Snapshot()
	defer sn.Close()
	names, err := sn.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestRejectedLoadLeavesNoDirtyPages: a load turned away — in prepare, or by
// the name check under the writer's lock — must leave nothing for the next
// commit to publish: no dirty page, no table, and a next commit whose WAL
// batch is the size of the small write that caused it.
func TestRejectedLoadLeavesNoDirtyPages(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "t.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := s.dbs[0]
	tr, err := treegen.Yule(400, 1.0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("taken", tr, 3, nil); err != nil {
		t.Fatal(err)
	}
	tablesBefore := committedTables(t, db)
	var batches [][]storage.DirtyPage
	db.Store().SetCommitHook(func(b storage.ReplBatch) { batches = append(batches, b.Pages) })
	// One small committed write sizes an ordinary batch.
	trees, err := db.Table("trees")
	if err != nil {
		t.Fatal(err)
	}
	touch := func(name string) int {
		t.Helper()
		if err := trees.Put(relstore.Tuple{relstore.Str(name), relstore.Int(1), relstore.Int(1), relstore.Int(2), relstore.Int(1), relstore.Int(0)}); err != nil {
			t.Fatal(err)
		}
		if _, err := trees.Delete(relstore.Str(name)); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		return len(batches[len(batches)-1])
	}
	ordinary := touch("probe-0")

	longName := phylo.New(&phylo.Node{Children: []*phylo.Node{{Name: strings.Repeat("x", 600)}, {Name: "b"}}})
	longName.Reindex()
	for name, load := range map[string]func() error{
		"bad name":      func() error { _, err := s.Load("no good", tr, 3, nil); return err },
		"oversized key": func() error { _, err := s.Load("fresh", longName, 3, nil); return err },
		"bad fanout":    func() error { _, err := s.Load("fresh", tr, 0, nil); return err },
		"name taken":    func() error { _, err := s.Load("taken", tr, 3, nil); return err },
	} {
		epoch := db.MVCC().Epoch
		if err := load(); err == nil {
			t.Fatalf("%s: load was not rejected", name)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := db.MVCC().Epoch; got != epoch {
			t.Fatalf("%s: rejected load left pages to commit (epoch %d -> %d)", name, epoch, got)
		}
		if got := touch("probe-" + name); got > ordinary+1 {
			t.Fatalf("%s: the commit after a rejected load wrote %d pages, an ordinary one %d", name, got, ordinary)
		}
	}
	tablesAfter := committedTables(t, db)
	if !reflect.DeepEqual(tablesAfter, tablesBefore) {
		t.Fatalf("rejected loads left tables behind: %v, had %v", tablesAfter, tablesBefore)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMetricsPopulated(t *testing.T) {
	tr, err := treegen.Yule(200, 1.0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	var m LoadMetrics
	if _, err := s.LoadOpts("t", tr, 3, LoadOptions{Workers: 2, Metrics: &m}, nil); err != nil {
		t.Fatal(err)
	}
	if m.IndexNS <= 0 || m.StageNS <= 0 || m.InsertNS <= 0 {
		t.Fatalf("expected positive stage timings, got %+v", m)
	}
}

// TestLoadOptsConcurrentDistinctShards loads one tree per shard
// concurrently with staging fan-out on, exercising the parallel paths
// under the race detector while honoring the one-writer-per-shard
// contract.
func TestLoadOptsConcurrentDistinctShards(t *testing.T) {
	const shards = 4
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*relstore.DB, shards)
	for i := range dbs {
		dbs[i] = relstore.OpenMemDB()
	}
	s, err := NewOnShards(dbs, router)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Pick one tree name per shard so concurrent loads never share a
	// shard's writer.
	names := make([]string, 0, shards)
	taken := make(map[int]bool, shards)
	for i := 0; len(names) < shards; i++ {
		name := fmt.Sprintf("tree-%d", i)
		if si := router.Place(name); !taken[si] {
			taken[si] = true
			names = append(names, name)
		}
	}
	errc := make(chan error, len(names))
	for i, name := range names {
		tr, err := treegen.Yule(150, 1.0, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		go func(name string, tr *phylo.Tree) {
			_, err := s.LoadOpts(name, tr, 3, LoadOptions{Workers: 4}, nil)
			errc <- err
		}(name, tr)
	}
	for range names {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Snapshot()
	defer sn.Close()
	infos, err := sn.TreesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(names) {
		t.Fatalf("got %d trees, want %d", len(infos), len(names))
	}
}
