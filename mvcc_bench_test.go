package crimson_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	crimson "repro"
	"repro/internal/core"
)

// BenchmarkReadDuringLoad quantifies what MVCC snapshots buy: reader
// latency while a bulk load churns in the background. Same query mix in
// both arms (storage-backed LCA or projection on a 2k-leaf tree, one
// snapshot per operation: pin the epoch, open the handle, query, release):
//
//	idle        — no writer
//	during-load — 10k-leaf load→delete cycles run alongside; reads take no
//	              database lock, so the only cost left is CPU contention
//	              with the loader
func BenchmarkReadDuringLoad(b *testing.B) {
	base := yuleTree(b, 2000)
	churn := yuleTree(b, 10000)

	// onSnapshot runs fn on the gold tree as a new snapshot reads it.
	onSnapshot := func(b *testing.B, s *crimson.Repository, fn func(st *crimson.StoredTree) error) {
		sn := s.Snapshot()
		defer sn.Close()
		st, err := sn.Tree("gold")
		if err == nil {
			err = fn(st)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	type readerFunc func(b *testing.B, s *crimson.Repository, nodes int, r *rand.Rand)
	snapLCA := func(b *testing.B, s *crimson.Repository, nodes int, r *rand.Rand) {
		for i := 0; i < b.N; i++ {
			onSnapshot(b, s, func(st *crimson.StoredTree) error {
				_, err := st.LCACtx(context.Background(), r.Intn(nodes), r.Intn(nodes))
				return err
			})
		}
	}
	snapProject := func(b *testing.B, s *crimson.Repository, nodes int, r *rand.Rand) {
		var ids []int
		onSnapshot(b, s, func(st *crimson.StoredTree) error {
			rows, err := st.SampleUniformCtx(context.Background(), 20, rand.New(rand.NewSource(7)))
			for _, row := range rows {
				ids = append(ids, row.ID)
			}
			return err
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			onSnapshot(b, s, func(st *crimson.StoredTree) error {
				_, err := st.ProjectCtx(context.Background(), ids)
				return err
			})
		}
	}

	run := func(b *testing.B, reader readerFunc, withLoad bool) {
		s := crimson.OpenMem()
		defer s.Close()
		loaded, err := s.LoadTree("gold", base, core.DefaultFanout, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes := loaded.Info().Nodes
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if withLoad {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					name := fmt.Sprintf("churn%d", i)
					if _, err := s.LoadTree(name, churn, core.DefaultFanout, nil); err != nil {
						b.Error(err)
						return
					}
					if err := s.Trees.Delete(name); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		b.ResetTimer()
		reader(b, s, nodes, rand.New(rand.NewSource(17)))
		b.StopTimer()
		close(stop)
		wg.Wait()
	}

	arms := []struct {
		name     string
		reader   readerFunc
		withLoad bool
	}{
		{"LCA/snapshot/idle", snapLCA, false},
		{"LCA/snapshot/during-load", snapLCA, true},
		{"Project-k=20/snapshot/idle", snapProject, false},
		{"Project-k=20/snapshot/during-load", snapProject, true},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) { run(b, arm.reader, arm.withLoad) })
	}
}

// BenchmarkSnapshotOpen measures the fixed cost of the per-request
// snapshot path: pin the epoch, open the tree handle from the pinned
// catalog, and release. Allocations are reported because Snapshot and
// Close sit on the epoch spine's change signal: with no waiter registered
// that signal is a nil check, and must stay one.
func BenchmarkSnapshotOpen(b *testing.B) {
	s := crimson.OpenMem()
	defer s.Close()
	if _, err := s.LoadTree("gold", yuleTree(b, 2000), core.DefaultFanout, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := s.Snapshot()
		if _, err := sn.Tree("gold"); err != nil {
			b.Fatal(err)
		}
		sn.Close()
	}
}
