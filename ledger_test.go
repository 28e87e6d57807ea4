package crimson_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	crimson "repro"
)

// ledgerPath is the checked-in cost ledger TestCostLedger holds the engine to.
const ledgerPath = "testdata/cost_ledger.json"

// ledgerCost is what one run of an op cost the engine, from its trace.
type ledgerCost struct {
	Descents     int64 `json:"btree_descents"`
	CellsDecoded int64 `json:"cells_decoded"`
	RowsScanned  int64 `json:"rows_scanned"`
	PoolHits     int64 `json:"pool_hits"`
	PoolMisses   int64 `json:"pool_misses"`
	PagesRead    int64 `json:"pages_read"`
}

// ledgerRow is one op: its first run on a freshly opened repository, whose
// buffer pool holds no page the op reads, and the same op run again at once.
type ledgerRow struct {
	Op   string     `json:"op"`
	Cold ledgerCost `json:"cold"`
	Warm ledgerCost `json:"warm"`
}

// costLedger is every fixture's rows, in the order measureLedger runs them.
type costLedger struct {
	Fixtures []ledgerFixture `json:"fixtures"`
}

// ledgerFixture is one stored tree and the ops run on it.
type ledgerFixture struct {
	Fixture string      `json:"fixture"`
	Rows    []ledgerRow `json:"rows"`
}

// ledgerOp is one row's query; run is timed under a single trace, so an op
// of many calls (lca_x64) sums their costs.
type ledgerOp struct {
	name string
	run  func(ctx context.Context, st *crimson.StoredTree) error
}

const caterpillarFixture = "caterpillar of depth 20000 (seed 1) loaded at f=16 into a file-backed repository " +
	"with the default buffer pool and no decoded-node cache, reopened before each op; " +
	"lca: two leaves by name (seed 7); project_names_k50: 50 leaves by name (seed 7); " +
	"sample_time_k50: 50 leaves beyond 0.95 of the height (draw seed 9)"

const yuleFixture = "Yule tree of 20000 leaves (rate 1, seed 2) loaded at f=16 into a file-backed repository " +
	"with the default buffer pool, reopened before each op; " +
	"lca_x64: 64 pairs of leaves by name (seed 7), one LCA each, summed; " +
	"project_names_k50: 50 leaves by name (seed 7)"

// TestCostLedger pins what the stored reads cost the engine, layer by
// layer, as exact counts: B+tree descents and decoded cells (storage),
// buffer-pool hits and misses and pages read (the pool) and rows scanned
// (relstore), each cold and warm. On the paper's deep case, a depth-20k
// caterpillar, it counts an LCA, a k=50 projection by name and a k=50
// time-constrained sample; on a 20k-leaf Yule tree, whose random pairs meet
// near the root far above both leaves, 64 LCAs and a k=50 projection. The
// counts are deterministic, so any change to them — a read path that got
// cheaper as much as one that got dearer — fails here until
// testdata/cost_ledger.json is updated with it, and every change to the cost
// of these reads is a reviewed diff of that file.
func TestCostLedger(t *testing.T) {
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var want costLedger
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	got := costLedger{Fixtures: []ledgerFixture{caterpillarLedger(t), yuleLedger(t)}}
	for _, fx := range got.Fixtures {
		for _, row := range fx.Rows {
			for _, c := range []ledgerCost{row.Cold, row.Warm} {
				if c.PoolMisses != c.PagesRead {
					t.Errorf("%s: %d pool misses but %d pages read; every miss is one read", row.Op, c.PoolMisses, c.PagesRead)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("the engine's costs differ from %s; measured:\n%s", ledgerPath, out)
	}
}

// leafNames draws the pair and the name set the ops ask for from the leaves
// of gold, with one seeded generator: pairs pairs of leaves, then k distinct
// leaves.
func leafNames(gold *crimson.Tree, seed int64, pairs, k int) ([][2]string, []string) {
	leaves := gold.LeafNames()
	r := rand.New(rand.NewSource(seed))
	pair := make([][2]string, pairs)
	for i := range pair {
		pair[i] = [2]string{leaves[r.Intn(len(leaves))], leaves[r.Intn(len(leaves))]}
	}
	var names []string
	for _, i := range r.Perm(len(leaves))[:k] {
		names = append(names, leaves[i])
	}
	return pair, names
}

// caterpillarLedger is the deep fixture's rows.
func caterpillarLedger(t *testing.T) ledgerFixture {
	gold, err := crimson.GenerateCaterpillar(20000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pair, names := leafNames(gold, 7, 1, 50)
	height := 0.0
	for _, d := range gold.RootDistances() {
		height = max(height, d)
	}
	return measureLedger(t, caterpillarFixture, gold, []ledgerOp{
		{"lca", func(ctx context.Context, st *crimson.StoredTree) error {
			_, err := st.LCANamesCtx(ctx, pair[0][0], pair[0][1])
			return err
		}},
		{"project_names_k50", func(ctx context.Context, st *crimson.StoredTree) error {
			_, err := st.ProjectNamesCtx(ctx, names)
			return err
		}},
		{"sample_time_k50", func(ctx context.Context, st *crimson.StoredTree) error {
			_, err := st.SampleWithTimeCtx(ctx, 0.95*height, 50, rand.New(rand.NewSource(9)))
			return err
		}},
	})
}

// yuleLedger is the shallow fixture's rows: the shape whose far pairs the
// LCA walk answers through every layer.
func yuleLedger(t *testing.T) ledgerFixture {
	gold, err := crimson.GenerateYule(20000, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	pairs, names := leafNames(gold, 7, 64, 50)
	return measureLedger(t, yuleFixture, gold, []ledgerOp{
		{"lca_x64", func(ctx context.Context, st *crimson.StoredTree) error {
			for _, p := range pairs {
				if _, err := st.LCANamesCtx(ctx, p[0], p[1]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"project_names_k50", func(ctx context.Context, st *crimson.StoredTree) error {
			_, err := st.ProjectNamesCtx(ctx, names)
			return err
		}},
	})
}

// measureLedger loads gold once at f=16 and runs each op on a repository
// opened afresh, so the cold run finds nothing resident.
func measureLedger(t *testing.T, fixture string, gold *crimson.Tree, ops []ledgerOp) ledgerFixture {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.db")
	repo, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("t", gold, 16, nil); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	ledger := ledgerFixture{Fixture: fixture}
	for _, op := range ops {
		repo, err := crimson.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sn := repo.Snapshot()
		st, err := sn.Tree("t")
		if err != nil {
			t.Fatal(err)
		}
		measure := func() ledgerCost {
			ctx, span := crimson.TraceContext(context.Background(), op.name)
			if err := op.run(ctx, st); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			span.End()
			c := span.Summary().Totals()
			return ledgerCost{
				Descents: c["btree_descents"], CellsDecoded: c["cells_decoded"], RowsScanned: c["rows_scanned"],
				PoolHits: c["pool_hits"], PoolMisses: c["pool_misses"], PagesRead: c["pages_read"],
			}
		}
		row := ledgerRow{Op: op.name}
		row.Cold = measure()
		row.Warm = measure()
		ledger.Rows = append(ledger.Rows, row)
		sn.Close()
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return ledger
}
