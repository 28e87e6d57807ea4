package crimson_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/treestore"
)

// BenchmarkReadDuringLoad quantifies the tentpole claim of the MVCC
// rework: reader latency while a bulk load churns in the background.
//
// Four arms, same query mix (storage-backed LCA or projection on a
// 2k-leaf tree):
//
//	live/idle          — reads through the live handle, no writer
//	live/during-load   — live handle while 10k-leaf load→delete cycles run;
//	                     each read serializes against the writer's lock and
//	                     stalls for the writer's longest critical section
//	snapshot/idle      — per-op snapshot (pin epoch, open handle, query)
//	snapshot/during-load — per-op snapshot under the same churn; reads
//	                     never take the database lock, so the only cost
//	                     left is CPU contention with the loader
//
// The acceptance criterion compares snapshot/during-load to snapshot/idle.
// On a single-core box the loader competes for the CPU itself, so compare
// the live and snapshot during-load arms to see the locking effect in
// isolation.
func BenchmarkReadDuringLoad(b *testing.B) {
	base := yuleTree(b, 2000)
	churn := yuleTree(b, 10000)

	type readerFunc func(b *testing.B, s *treestore.Store, nodes int, r *rand.Rand)

	liveLCA := func(b *testing.B, s *treestore.Store, nodes int, r *rand.Rand) {
		st, err := s.Tree("gold")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := st.LCACtx(context.Background(), r.Intn(nodes), r.Intn(nodes)); err != nil {
				b.Fatal(err)
			}
		}
	}
	snapLCA := func(b *testing.B, s *treestore.Store, nodes int, r *rand.Rand) {
		for i := 0; i < b.N; i++ {
			sn := s.Snapshot()
			st, err := sn.Tree("gold")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.LCACtx(context.Background(), r.Intn(nodes), r.Intn(nodes)); err != nil {
				b.Fatal(err)
			}
			sn.Close()
		}
	}
	projectIDs := func(s *treestore.Store) []int {
		st, err := s.Tree("gold")
		if err != nil {
			return nil
		}
		rows, err := st.SampleUniformCtx(context.Background(), 20, rand.New(rand.NewSource(7)))
		if err != nil {
			return nil
		}
		ids := make([]int, len(rows))
		for i, row := range rows {
			ids[i] = row.ID
		}
		return ids
	}
	liveProject := func(b *testing.B, s *treestore.Store, nodes int, r *rand.Rand) {
		ids := projectIDs(s)
		st, err := s.Tree("gold")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
				b.Fatal(err)
			}
		}
	}
	snapProject := func(b *testing.B, s *treestore.Store, nodes int, r *rand.Rand) {
		ids := projectIDs(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sn := s.Snapshot()
			st, err := sn.Tree("gold")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
				b.Fatal(err)
			}
			sn.Close()
		}
	}

	run := func(b *testing.B, reader readerFunc, withLoad bool) {
		s := treestore.OpenMem()
		defer s.Close()
		st, err := s.Load("gold", base, core.DefaultFanout, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes := st.Info().Nodes
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
					if _, err := s.Load(name, churn, core.DefaultFanout, nil); err != nil {
						b.Error(err)
						return
					}
					if err := s.Delete(name); err != nil {
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
		{"LCA/live/idle", liveLCA, false},
		{"LCA/live/during-load", liveLCA, true},
		{"LCA/snapshot/idle", snapLCA, false},
		{"LCA/snapshot/during-load", snapLCA, true},
		{"Project-k=20/live/idle", liveProject, false},
		{"Project-k=20/live/during-load", liveProject, true},
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
	s := treestore.OpenMem()
	defer s.Close()
	if _, err := s.Load("gold", yuleTree(b, 2000), core.DefaultFanout, nil); err != nil {
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
