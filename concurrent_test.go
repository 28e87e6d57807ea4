package crimson_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	crimson "repro"
	"repro/internal/phylo"
	"repro/internal/sample"
	"repro/internal/treegen"
	"repro/internal/treestore"
)

// goldVersion is one incarnation of a stored tree — a shape and a depth
// bound — with the in-memory engine that answers for it.
type goldVersion struct {
	tree   *crimson.Tree
	f      int
	ix     *crimson.Index
	plan   *crimson.Planner
	height float64 // root distance of the farthest leaf
}

func newGoldVersion(t testing.TB, leaves, f int, seed int64) *goldVersion {
	t.Helper()
	tree, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := crimson.BuildIndex(tree, f)
	if err != nil {
		t.Fatal(err)
	}
	v := &goldVersion{tree: tree, f: f, ix: ix, plan: crimson.NewPlanner(tree, ix)}
	for _, d := range tree.RootDistances() {
		v.height = max(v.height, d)
	}
	return v
}

// checkWhole is the read contract on one handle: st is one of versions,
// whole — its summary is that version's, and an LCA, a uniform sample, the
// projection over it and a time-constrained sample, drawn from rng, are the
// in-memory engine's answers on that version's tree. No error is tolerated:
// a handle from a snapshot cannot see a writer.
func checkWhole(ctx context.Context, st *crimson.StoredTree, versions []*goldVersion, rng *rand.Rand) error {
	info := st.Info()
	var v *goldVersion
	for _, cand := range versions {
		if cand.f == info.F && cand.tree.NumNodes() == info.Nodes {
			v = cand
		}
	}
	if v == nil {
		return fmt.Errorf("handle describes no loaded version: %+v", info)
	}
	if info.Leaves != v.tree.NumLeaves() || info.Layers != v.ix.NumLayers() || info.Depth != v.tree.MaxDepth() {
		return fmt.Errorf("summary %+v mixes versions (f=%d tree: %d leaves, %d layers, depth %d)",
			info, v.f, v.tree.NumLeaves(), v.ix.NumLayers(), v.tree.MaxDepth())
	}
	nodes := v.tree.Nodes()

	a, b := rng.Intn(len(nodes)), rng.Intn(len(nodes))
	if got, err := st.LCACtx(ctx, a, b); err != nil || got != v.ix.LCA(a, b) {
		return fmt.Errorf("f=%d: LCA(%d,%d) = %d, %v; the index says %d", v.f, a, b, got, err, v.ix.LCA(a, b))
	}

	rows, err := st.SampleUniformCtx(ctx, 2+rng.Intn(8), rng)
	if err != nil {
		return fmt.Errorf("f=%d: sample: %w", v.f, err)
	}
	ids, names := make([]int, len(rows)), make([]string, len(rows))
	for i, row := range rows {
		if n := nodes[row.ID]; !row.Leaf || !n.IsLeaf() || n.Name != row.Name {
			return fmt.Errorf("f=%d: sampled row %+v is not leaf %d (%q) of the tree", v.f, row, row.ID, n.Name)
		}
		ids[i], names[i] = row.ID, row.Name
	}
	got, err := st.ProjectCtx(ctx, ids)
	if err != nil {
		return fmt.Errorf("f=%d: project: %w", v.f, err)
	}
	want, err := v.plan.ProjectNames(names)
	if err != nil {
		return err
	}
	if !phylo.Equal(got, want, 1e-9) {
		return fmt.Errorf("f=%d: projection over %v differs from the planner's", v.f, names)
	}

	seed := rng.Int63()
	timed, err := st.SampleWithTimeCtx(ctx, v.height/2, 6, rand.New(rand.NewSource(seed)))
	if err != nil {
		return fmt.Errorf("f=%d: sample with time: %w", v.f, err)
	}
	mem, err := sample.WithRespectToTime(v.tree, v.height/2, 6, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	gotNames, wantNames := make([]string, len(timed)), sample.Names(mem)
	for i, row := range timed {
		gotNames[i] = row.Name
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if !slices.Equal(gotNames, wantNames) {
		return fmt.Errorf("f=%d: time-constrained sample %v, in memory %v", v.f, gotNames, wantNames)
	}
	return nil
}

// TestSnapshotReadersSameNameReload is the stress test of the read contract
// — a read sees committed state, whole or not at all: one writer deletes a
// tree and reloads its name with another tree at another depth bound, round
// after round, a checkpointer flushes the page file under both, and eight
// readers open snapshot after snapshot. Every Snapshot.Tree is ErrNoTree
// (the snapshot fell between a delete and a reload) or a handle that passes
// checkWhole. Run with -race.
func TestSnapshotReadersSameNameReload(t *testing.T) {
	repo, err := crimson.Open(filepath.Join(t.TempDir(), "reload.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	versions := []*goldVersion{
		newGoldVersion(t, 700, crimson.DefaultFanout, 1),
		newGoldVersion(t, 900, 4, 2),
		newGoldVersion(t, 500, 8, 3),
	}
	const name = "flux"
	load := func(round int) error {
		v := versions[round%len(versions)]
		_, err := repo.LoadTree(name, v.tree, v.f, nil)
		return err
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 8
		rounds  = 9
	)
	var stop atomic.Bool
	var seen atomic.Int64 // handles the readers have checked
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		for round := 1; round <= rounds; round++ {
			// Let the readers at each version before it goes: the delete
			// then lands while some of them are mid-query.
			for target := seen.Load() + 2*readers; seen.Load() < target && len(errs) == 0; {
				runtime.Gosched()
			}
			if err := repo.Trees.Delete(name); err != nil {
				errs <- fmt.Errorf("delete, round %d: %w", round, err)
				return
			}
			if err := load(round); err != nil {
				errs <- fmt.Errorf("reload, round %d: %w", round, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for !stop.Load() {
			if err := repo.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	whole, none := make([]int, readers), make([]int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for !stop.Load() {
				snap := repo.Snapshot()
				st, err := snap.Tree(name)
				switch {
				case errors.Is(err, treestore.ErrNoTree):
					none[g]++
					err = nil
				case err == nil:
					whole[g]++
					err = checkWhole(context.Background(), st, versions, rng)
					seen.Add(1)
				}
				snap.Close()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The writer's last version is what a new snapshot reads, the
	// repository is intact and nothing is left pinned.
	final := openTree(t, repo, name)
	if last := versions[rounds%len(versions)]; final.Info().F != last.f || final.Info().Nodes != last.tree.NumNodes() {
		t.Fatalf("final tree is %+v, want the f=%d version of %d nodes", final.Info(), last.f, last.tree.NumNodes())
	}
	if err := repo.Check(); err != nil {
		t.Fatalf("post-stress integrity: %v", err)
	}
	sumWhole, sumNone := 0, 0
	for g := range whole {
		sumWhole += whole[g]
		sumNone += none[g]
	}
	if sumWhole == 0 {
		t.Fatal("no reader ever saw the tree")
	}
	t.Logf("readers saw the tree whole %d times, absent %d times, across %d reloads", sumWhole, sumNone, rounds)
}

// TestSnapshotIsolationLoadDeleteStress is the MVCC stress test: 8
// snapshot readers run Project, LCA and Sample against a tree that one
// writer goroutine keeps loading and deleting in a loop. Every reader
// iteration must see all-or-nothing: either the snapshot predates the
// tree (ErrNoTree) or the tree is complete — full node count, every query
// answering — no matter where the writer is mid-load or mid-delete. Run
// with -race.
func TestSnapshotIsolationLoadDeleteStress(t *testing.T) {
	repo := crimson.OpenMem()
	defer repo.Close()

	// A stable tree gives readers guaranteed work on every iteration.
	gold, err := treegen.Yule(1500, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("gold", gold, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	flux, err := treegen.Yule(800, 1.0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	fluxNodes := flux.NumNodes()

	const readers = 8
	const cycles = 6
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})

	// Writer: load→delete the flux tree in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < cycles; i++ {
			if _, err := repo.LoadTree("flux", flux, crimson.DefaultFanout, nil); err != nil {
				errs <- fmt.Errorf("writer load %d: %w", i, err)
				return
			}
			if err := repo.Trees.Delete("flux"); err != nil {
				errs <- fmt.Errorf("writer delete %d: %w", i, err)
				return
			}
		}
	}()

	sawWhole := make([]int, readers)
	sawNone := make([]int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + g)))
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				sn := repo.Snapshot()
				// The flux tree must be atomic: absent, or whole.
				ft, err := sn.Tree("flux")
				switch {
				case err == nil:
					info := ft.Info()
					if info.Nodes != fluxNodes {
						errs <- fmt.Errorf("reader %d: torn snapshot: flux has %d nodes, want %d", g, info.Nodes, fluxNodes)
						sn.Close()
						return
					}
					// Count every stored node row: mid-delete states would
					// lose rows, mid-load states would miss tables.
					leaves, err := ft.LeavesUnderCtx(context.Background(), 0)
					if err != nil {
						errs <- fmt.Errorf("reader %d: flux leaves: %w", g, err)
						sn.Close()
						return
					}
					if len(leaves) != info.Leaves {
						errs <- fmt.Errorf("reader %d: torn snapshot: %d leaves scanned, info says %d", g, len(leaves), info.Leaves)
						sn.Close()
						return
					}
					if _, err := ft.LCACtx(context.Background(), r.Intn(info.Nodes), r.Intn(info.Nodes)); err != nil {
						errs <- fmt.Errorf("reader %d: flux LCA: %w", g, err)
						sn.Close()
						return
					}
					sawWhole[g]++
				case errors.Is(err, treestore.ErrNoTree):
					sawNone[g]++ // snapshot predates this load cycle: fine
				default:
					errs <- fmt.Errorf("reader %d: open flux: %w", g, err)
					sn.Close()
					return
				}
				// The gold tree is always present; exercise the full query
				// surface against the same snapshot.
				gt, err := sn.Tree("gold")
				if err != nil {
					errs <- fmt.Errorf("reader %d: open gold: %w", g, err)
					sn.Close()
					return
				}
				rows, err := gt.SampleUniformCtx(context.Background(), 6, r)
				if err != nil {
					errs <- fmt.Errorf("reader %d: sample: %w", g, err)
					sn.Close()
					return
				}
				ids := make([]int, len(rows))
				for j, row := range rows {
					ids[j] = row.ID
				}
				if _, err := gt.ProjectCtx(context.Background(), ids); err != nil {
					errs <- fmt.Errorf("reader %d: project: %w", g, err)
					sn.Close()
					return
				}
				sn.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The repository is intact, reclamation has caught up (no snapshots
	// remain), and a final check passes.
	if err := repo.Check(); err != nil {
		t.Fatalf("post-stress integrity: %v", err)
	}
	mv := repo.MVCC()
	if mv.OpenSnapshots != 0 {
		t.Fatalf("%d snapshots still open after stress", mv.OpenSnapshots)
	}
	whole, none := 0, 0
	for g := 0; g < readers; g++ {
		whole += sawWhole[g]
		none += sawNone[g]
	}
	t.Logf("readers observed flux whole %d times, absent %d times, across %d writer cycles (epoch %d, %d pages pending reclaim)",
		whole, none, cycles, mv.Epoch, mv.PendingReclaimPages)
}
