package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestGroupCommitCoalescesFsyncs pins the headline property of group
// commit: commits prepared while no flush has started share one WAL
// append + fsync. Eight transactions are prepared back to back (no Wait
// in between), then awaited — the batch must cost exactly one fsync, an
// 8x reduction over the serial one-fsync-per-commit path.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	s, _ := openTempStore(t)
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	const commits = 8
	before := obs.Engine.Snapshot()
	syncsBefore, commitsBefore := before["wal_syncs"], before["commits"]
	epochBefore := s.MVCC().Epoch

	waiters := make([]*CommitWaiter, 0, commits)
	for i := 0; i < commits; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		s.SetRoot(0, tree.Root())
		waiters = append(waiters, s.CommitAsync())
	}
	for i, w := range waiters {
		if err := w.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	after := obs.Engine.Snapshot()
	if d := after["wal_syncs"] - syncsBefore; d != 1 {
		t.Fatalf("8 coalesced commits cost %d fsyncs, want 1", d)
	}
	if d := after["commits"] - commitsBefore; d != commits {
		t.Fatalf("commits counter advanced by %d, want %d", d, commits)
	}
	if got := s.MVCC().Epoch; got != epochBefore+commits {
		t.Fatalf("epoch %d after %d commits from %d", got, commits, epochBefore)
	}
	// Every waiter rode in the same batch and can see its size.
	for i, w := range waiters {
		if w.BatchSize() != commits {
			t.Fatalf("waiter %d reports batch size %d, want %d", i, w.BatchSize(), commits)
		}
	}
	// All eight transactions are visible.
	for i := 0; i < commits; i++ {
		if _, ok, err := tree.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil || !ok {
			t.Fatalf("key-%02d lost after group flush (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestGroupCommitWaitersAlwaysComplete hammers the leader/follower
// machinery: many goroutines race prepare+wait cycles against one shared
// writer mutex. This is a regression test for the leadership-handoff hole
// where requests enqueued mid-flush were never flushed once the leader
// stepped down (the test deadlocked). Run with -race.
func TestGroupCommitWaitersAlwaysComplete(t *testing.T) {
	s, _ := openTempStore(t)
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		ops     = 25
	)
	var (
		mu sync.Mutex // single-writer contract: mutations + prepare under mu
		wg sync.WaitGroup
	)
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				mu.Lock()
				err := tree.Put([]byte(fmt.Sprintf("w%d-%03d", g, i)), []byte("v"))
				if err == nil {
					s.SetRoot(0, tree.Root())
				}
				w := s.CommitAsync()
				mu.Unlock()
				if werr := w.Wait(); err == nil {
					err = werr
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("w%d-%03d", g, i)
			if _, ok, err := tree.Get([]byte(key)); err != nil || !ok {
				t.Fatalf("%s lost (ok=%v err=%v)", key, ok, err)
			}
		}
	}
}

// TestCommitAsyncAfterCloseFails pins the closed-store behaviour: the
// waiter reports errClosed instead of panicking or hanging.
func TestCommitAsyncAfterCloseFails(t *testing.T) {
	s, _ := openTempStore(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitAsync().Wait(); err != errClosed {
		t.Fatalf("CommitAsync on closed store: %v, want ErrClosed", err)
	}
}
