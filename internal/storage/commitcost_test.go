package storage

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// residentStore returns an in-memory store with about pool clean frames
// resident and nothing dirty. In-memory commits run the whole capture —
// collect the dirty frames, write them back, clear them — with no fsync to
// hide its cost.
func residentStore(tb testing.TB, pool int) *Store {
	tb.Helper()
	s := OpenMemWithPoolLimit(pool)
	for s.pool.Len() < pool {
		if _, err := s.Allocate(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkCommitOnePage commits a transaction of one dirty page (the meta
// page, for a root change) over pools of 64 and 4096 resident frames.
// Capture walks the dirty list, not the pool, so ns/op is flat in pool
// size; when it iterated every frame twice the large pool cost ~60x the
// small one.
func BenchmarkCommitOnePage(b *testing.B) {
	for _, pool := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			s := residentStore(b, pool)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SetRoot(1, PageID(1+i%2))
				if err := s.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCommitCostFlatInPoolSize is the benchmark's gate as a test: a one-page
// commit over 4096 resident frames must not cost many times one over 64.
// The bound is loose (the benchmark shows ~1x, the old capture ~60x) so a
// noisy machine does not trip it.
func TestCommitCostFlatInPoolSize(t *testing.T) {
	perCommit := func(pool int) time.Duration {
		s := residentStore(t, pool)
		defer s.Close()
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			const n = 2000
			start := time.Now()
			for i := 0; i < n; i++ {
				s.SetRoot(1, PageID(1+i%2))
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start)/n)
		}
		return best
	}
	small, large := perCommit(64), perCommit(4096)
	t.Logf("one-page commit: %v over 64 frames, %v over 4096", small, large)
	if large > 8*small {
		t.Fatalf("a one-page commit costs %v over 4096 resident frames, %v over 64: capture scales with the pool", large, small)
	}
}

// TestWALBatchListsPagesAscending: the dirty list is in the order pages were
// dirtied; a commit batch must still list them by ascending page id, as
// the WAL, the checkpointer and the replication stream have always seen
// them.
func TestWALBatchListsPagesAscending(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "asc.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetCheckpointPolicy(1<<40, time.Hour) // keep the WAL for the scan
	var ids []PageID
	for i := 0; i < 40; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Rewrite them copy-on-write in descending order, in two transactions.
	for half := 0; half < 2; half++ {
		for i := len(ids)/2*(2-half) - 1; i >= len(ids)/2*(1-half); i-- {
			img := make([]byte, PageSize)
			img[0] = byte(i)
			if _, err := s.WriteCOW(ids[i], img); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	batches := 0
	err = s.ScanWALBatches(func(pages []DirtyPage) error {
		batches++
		for i := 1; i < len(pages); i++ {
			if pages[i-1].ID >= pages[i].ID {
				return fmt.Errorf("batch %d lists page %d before page %d", batches, pages[i-1].ID, pages[i].ID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 3 {
		t.Fatalf("scanned %d WAL batches, want the 3 commits", batches)
	}
}
