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

type costLedger struct {
	Fixture string      `json:"fixture"`
	Rows    []ledgerRow `json:"rows"`
}

const ledgerFixture = "caterpillar of depth 20000 (seed 1) loaded at f=16 into a file-backed repository " +
	"with the default buffer pool and no decoded-node cache, reopened before each op; " +
	"lca: two leaves by name (seed 7); project_names_k50: 50 leaves by name (seed 7); " +
	"sample_time_k50: 50 leaves beyond 0.95 of the height (draw seed 9)"

// TestCostLedger pins what the deep-tree reads cost the engine, layer by
// layer, as exact counts: B+tree descents and decoded cells (storage),
// buffer-pool hits and misses and pages read (the pool) and rows scanned
// (relstore) of an LCA, a k=50 projection by name and a k=50
// time-constrained sample on the paper's deep case, each cold and warm. The
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
	got := measureLedger(t)
	for _, row := range got.Rows {
		for _, c := range []ledgerCost{row.Cold, row.Warm} {
			if c.PoolMisses != c.PagesRead {
				t.Errorf("%s: %d pool misses but %d pages read; every miss is one read", row.Op, c.PoolMisses, c.PagesRead)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("the engine's costs differ from %s; measured:\n%s", ledgerPath, out)
	}
}

// measureLedger loads the fixture once and runs each op on a repository
// opened afresh, so the cold run finds nothing resident.
func measureLedger(t *testing.T) costLedger {
	t.Helper()
	gold, err := crimson.GenerateCaterpillar(20000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.db")
	repo, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("cat", gold, 16, nil); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	leaves := gold.LeafNames()
	r := rand.New(rand.NewSource(7))
	pair := [2]string{leaves[r.Intn(len(leaves))], leaves[r.Intn(len(leaves))]}
	var names []string
	for _, i := range r.Perm(len(leaves))[:50] {
		names = append(names, leaves[i])
	}
	height := 0.0
	for _, d := range gold.RootDistances() {
		height = max(height, d)
	}
	ops := []struct {
		name string
		run  func(ctx context.Context, st *crimson.StoredTree) error
	}{
		{"lca", func(ctx context.Context, st *crimson.StoredTree) error {
			_, err := st.LCANamesCtx(ctx, pair[0], pair[1])
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
	}
	ledger := costLedger{Fixture: ledgerFixture}
	for _, op := range ops {
		repo, err := crimson.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sn := repo.Snapshot()
		st, err := sn.Tree("cat")
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
