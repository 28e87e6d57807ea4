package storage

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests pin the wake semantics of the epoch spine's change signal:
// no lost wake-up, no spurious success, no goroutine or channel left
// behind, and every path that moves (or ends) the state releases whoever
// is blocked on it.

// bumpEpoch commits one (meta-only) transaction and returns the epoch it
// published.
func bumpEpoch(t testing.TB, s *Store) uint64 {
	t.Helper()
	s.SetRoot(2, 0)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return s.PublishedEpoch()
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAwaitEpochNoLostWakeups races 64 waiters, each on one of the next k
// epochs, against a committer publishing exactly those k epochs, and
// cancels a third of the waiters midway. A waiter returns nil only with
// its epoch published, a cancelled one returns nil or its context's
// error, nobody stays blocked, and no goroutine outlives the test.
func TestAwaitEpochNoLostWakeups(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	base := runtime.NumGoroutine()
	const waiters, k = 64, 16
	e0 := s.PublishedEpoch()

	cancelCtx, cancelThird := context.WithCancel(context.Background())
	defer cancelThird()
	bound, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()

	type result struct {
		want      uint64
		cancelled bool
		seen      uint64 // published epoch right after the return
		err       error
	}
	results := make([]result, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		r := &results[i]
		r.want, r.cancelled = e0+1+uint64(i%k), i%3 == 0
		ctx := bound
		if r.cancelled {
			ctx = cancelCtx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.err = s.AwaitEpoch(ctx, r.want)
			r.seen = s.PublishedEpoch()
		}()
	}
	for i := 0; i < k; i++ {
		if i == k/2 {
			cancelThird()
		}
		bumpEpoch(t, s)
		runtime.Gosched()
	}
	wg.Wait()
	for i, r := range results {
		switch {
		case r.err == nil:
			if r.seen < r.want {
				t.Errorf("waiter %d: spurious success at epoch %d, want >= %d", i, r.seen, r.want)
			}
		case r.cancelled && errors.Is(r.err, context.Canceled):
		default:
			t.Errorf("waiter %d (want %d, cancelled=%v): %v", i, r.want, r.cancelled, r.err)
		}
	}
	if s.ep.changed != nil {
		t.Error("a change channel is still registered with no waiter left")
	}
	settleGoroutines(t, base)
}

// TestAwaitEpochReturnsAtOnceWhenReached: the no-wait path takes no
// channel and needs no live context.
func TestAwaitEpochReturnsAtOnceWhenReached(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	e := bumpEpoch(t, s)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AwaitEpoch(dead, e); err != nil {
		t.Fatalf("reached epoch on a dead context: %v", err)
	}
	if err := s.AwaitEpoch(dead, e+1); !errors.Is(err, context.Canceled) {
		t.Fatalf("unreached epoch on a dead context: %v", err)
	}
	if s.ep.changed == nil {
		t.Fatal("the blocked call registered no channel")
	}
	bumpEpoch(t, s)
	if s.ep.changed != nil {
		t.Fatal("publish left the channel registered")
	}
}

// awaitRegistered waits until a waiter has registered on the store's change
// signal; a result arriving on done first means it never blocked.
func awaitRegistered(t *testing.T, s *Store, done <-chan error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.ep.mu.Lock()
		registered := s.ep.changed != nil
		s.ep.mu.Unlock()
		if registered {
			return
		}
		select {
		case err := <-done:
			t.Fatalf("returned without blocking: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		runtime.Gosched()
	}
}

// blockOn starts fn, waits until it has registered on the store's change
// signal, and returns the channel its result arrives on.
func blockOn(t *testing.T, s *Store, fn func() error) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	awaitRegistered(t, s, done)
	return done
}

func mustReturn(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked")
		return nil
	}
}

func stillBlocked(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("waiter returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestCloseReleasesWaiters: both kinds of waiter return ErrClosed when the
// store closes under them, and so does a call on a closed store.
func TestCloseReleasesWaiters(t *testing.T) {
	s := OpenMem()
	ctx := context.Background()
	sn := s.Snapshot()
	limit := sn.Epoch() + 1
	epochWait := blockOn(t, s, func() error { return s.AwaitEpoch(ctx, limit+10) })
	snapWait := blockOn(t, s, func() error { return s.AwaitSnapshotsFrom(ctx, limit) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mustReturn(t, epochWait); !errors.Is(err, ErrClosed) {
		t.Fatalf("AwaitEpoch across Close: %v", err)
	}
	if err := mustReturn(t, snapWait); !errors.Is(err, ErrClosed) {
		t.Fatalf("AwaitSnapshotsFrom across Close: %v", err)
	}
	if err := s.AwaitEpoch(ctx, limit+10); !errors.Is(err, ErrClosed) {
		t.Fatalf("AwaitEpoch on a closed store: %v", err)
	}
	sn.Close()
}

// TestPromoteReleasesWaiters: a waiter parked on a replica for an epoch the
// dead primary never shipped is woken by Promote, finds the epoch still
// short and waits on; the promoted store's first commit satisfies it.
func TestPromoteReleasesWaiters(t *testing.T) {
	s, err := OpenReplica(filepath.Join(t.TempDir(), "replica.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := s.PublishedEpoch() + 1
	done := blockOn(t, s, func() error { return s.AwaitEpoch(context.Background(), want) })
	s.Promote()
	// Promote cleared the channel; finding one again means the waiter was
	// woken, found the epoch still short and registered anew.
	awaitRegistered(t, s, done)
	stillBlocked(t, done)
	if got := bumpEpoch(t, s); got < want {
		t.Fatalf("promoted store committed epoch %d, want >= %d", got, want)
	}
	if err := mustReturn(t, done); err != nil {
		t.Fatalf("AwaitEpoch across Promote + commit: %v", err)
	}
}

// TestAwaitSnapshotsFrom: the wait ends the moment the last snapshot below
// the limit closes — not when a newer one does, not when one of two pins of
// the old epoch does — and an invalidation ends it too.
func TestAwaitSnapshotsFrom(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	ctx := context.Background()
	old1, old2 := s.Snapshot(), s.Snapshot()
	limit := bumpEpoch(t, s)
	cur := s.Snapshot()
	defer cur.Close()
	if old1.Epoch() >= limit || cur.Epoch() != limit {
		t.Fatalf("epochs: old %d, current %d, limit %d", old1.Epoch(), cur.Epoch(), limit)
	}

	if err := s.AwaitSnapshotsFrom(ctx, old1.Epoch()); err != nil {
		t.Fatalf("nothing pins below %d: %v", old1.Epoch(), err)
	}
	done := blockOn(t, s, func() error { return s.AwaitSnapshotsFrom(ctx, limit) })
	extra := s.Snapshot()
	extra.Close() // a pin of the current epoch comes and goes
	old1.Close()  // one of two pins of the old epoch
	stillBlocked(t, done)
	start := time.Now()
	old2.Close()
	if err := mustReturn(t, done); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("woke %v after the last older snapshot closed", d)
	}

	// Deadline, then invalidation: what the follower's horizon wait does.
	pinned := s.Snapshot()
	defer pinned.Close()
	limit = bumpEpoch(t, s)
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := s.AwaitSnapshotsFrom(short, limit); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pinned snapshot, short deadline: %v", err)
	}
	done = blockOn(t, s, func() error { return s.AwaitSnapshotsFrom(ctx, limit) })
	s.InvalidateSnapshotsBelow(limit)
	if err := mustReturn(t, done); err != nil {
		t.Fatalf("after invalidation: %v", err)
	}
}
