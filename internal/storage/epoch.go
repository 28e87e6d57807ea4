package storage

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// This file implements the MVCC spine of the store: versioned roots
// published at commit, snapshot handles that pin an epoch, and epoch-based
// reclamation of copy-on-write superseded pages.
//
// The model:
//
//   - Writers never modify a committed page in place. They copy-on-write
//     through Store.writeCOW, which redirects the write to a fresh page and
//     retires the superseded one.
//   - Commit atomically publishes the new root set and epoch. Snapshots
//     taken afterwards see the new state; snapshots taken before keep
//     reading the old pages, which stay untouched on disk and in the pool.
//   - A retired page becomes reusable only once (a) the commit that
//     superseded it has published, and (b) no live snapshot pins an epoch
//     that could still reference it. Until then it sits on a pending list,
//     visible as "pages awaiting reclamation" in the stats.
//
// Lock ordering: Store.mu may be taken before epochs.mu, never the other
// way around. Paths that discover freeable pages under epochs.mu release
// it before re-entering the store to push them onto the free list.
//
// Waiting: the spine has one change signal. Whoever needs the state to
// move — a fenced replica read waiting for an epoch (AwaitEpoch), a
// replicated apply waiting for older snapshots to close
// (AwaitSnapshotsFrom) — registers a channel under epochs.mu and blocks on
// it; every path that moves the state (publish, the last pin of an epoch
// released, an invalidation, Promote, Close) closes that channel under the
// same lock, after its own update. Nobody polls.

// retireBatch collects the pages retired while one epoch was current.
// Batches are appended in epoch order, so the pending list stays sorted.
type retireBatch struct {
	epoch uint64
	pages []PageID
}

// epochs tracks the published state, the reclamation pipeline and the
// waiters on either. changed is the change signal: nil while nobody waits
// (so the paths that move the state pay one nil check under the lock they
// already hold), created by the first waiter to block, closed and cleared
// by wakeLocked. A woken waiter re-reads the state under mu, so a wake
// that follows the update it announces can neither be lost (the waiter
// either sees the new state before registering, or is registered when the
// close comes) nor report a state that is not there.
type epochs struct {
	mu        sync.Mutex
	current   uint64           // epoch of the last published (committed) state
	published [NumRoots]PageID // root slots as of the last commit
	meta      []byte           // the last commit's meta page image
	active    map[uint64]int   // open snapshot refcounts by epoch
	pending   []retireBatch    // retired pages awaiting reclamation, epoch-sorted
	pendingN  int              // total pages across pending
	changed   chan struct{}    // non-nil iff a waiter is blocked on the next change
	closed    bool             // the store is closed: waiters return errClosed
}

func (e *epochs) init(epoch uint64, roots [NumRoots]PageID, meta []byte) {
	e.current = epoch
	e.published = roots
	e.meta = meta
	e.active = make(map[uint64]int)
}

// wakeLocked releases every blocked waiter to re-read the state. It must run
// after the update it announces. Callers hold e.mu.
func (e *epochs) wakeLocked() {
	if e.changed != nil {
		close(e.changed)
		e.changed = nil
	}
}

// wake is wakeLocked for the paths whose update lives outside e.mu.
func (e *epochs) wake() {
	e.mu.Lock()
	e.wakeLocked()
	e.mu.Unlock()
}

// await blocks until reached (evaluated under e.mu) holds, the store closes
// (errClosed) or ctx ends (its error), and reports how many times the
// signal woke it on the way.
func (e *epochs) await(ctx context.Context, reached func() bool) (wakeups int64, err error) {
	for {
		e.mu.Lock()
		if reached() {
			e.mu.Unlock()
			return wakeups, nil
		}
		if e.closed {
			e.mu.Unlock()
			return wakeups, errClosed
		}
		if e.changed == nil {
			e.changed = make(chan struct{})
		}
		ch := e.changed
		e.mu.Unlock()
		select {
		case <-ch:
			wakeups++
		case <-ctx.Done():
			return wakeups, ctx.Err()
		}
	}
}

// AwaitEpoch blocks until the published epoch is at least epoch — the
// min-epoch fence of a replica read, woken by the apply (or commit) that
// publishes. It is judged on the state a snapshot opened right after will
// read, so a caller that pins a snapshot on return sees epoch or later
// (PublishedEpoch, stored under the same lock, reads no less either). It
// returns ctx's error when ctx ends first and errClosed once the store is
// closed; every wake-up counts in repl_fence_wakeups.
func (s *Store) AwaitEpoch(ctx context.Context, epoch uint64) error {
	e := &s.ep
	wakeups, err := e.await(ctx, func() bool { return e.current >= epoch })
	if wakeups > 0 {
		obs.Engine.Add(obs.CtrReplFenceWakeups, wakeups)
	}
	return err
}

// AwaitSnapshotsFrom blocks until no open snapshot that can still read
// pins an epoch below limit (snapshots already invalidated below limit do
// not count: their reads fail instead of observing an apply). It returns
// the moment the last such snapshot closes, ctx's error when ctx ends
// first, and errClosed once the store is closed.
func (s *Store) AwaitSnapshotsFrom(ctx context.Context, limit uint64) error {
	e := &s.ep
	_, err := e.await(ctx, func() bool {
		if s.snapInvalid.Load() >= limit {
			return true
		}
		for ep := range e.active {
			if ep < limit {
				return false
			}
		}
		return true
	})
	return err
}

// retireAt records a superseded committed page under the given epoch — the
// last *prepared* epoch (Store.meta.epoch under Store.mu), not the published
// one. With group commit the publish of a prepared epoch is asynchronous, so
// attributing to the published epoch could free a page that a
// prepared-but-unpublished epoch still references. Prepared epochs are
// monotonic under Store.mu, so the pending list stays epoch-sorted.
func (e *epochs) retireAt(epoch uint64, ids ...PageID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.pending); n > 0 && e.pending[n-1].epoch == epoch {
		e.pending[n-1].pages = append(e.pending[n-1].pages, ids...)
	} else {
		e.pending = append(e.pending, retireBatch{epoch: epoch, pages: ids})
	}
	e.pendingN += len(ids)
}

// oldestLocked is the oldest epoch a reader may still read: the current
// one, or an older one an open snapshot pins. Callers hold e.mu.
func (e *epochs) oldestLocked() uint64 {
	min := e.current
	for ep := range e.active {
		if ep < min {
			min = ep
		}
	}
	return min
}

// collectLocked removes and returns every pending page that is now safe to
// reuse: its batch epoch precedes both the current epoch (the superseding
// commit has published) and every open snapshot. The second result is the
// newest retire epoch among the collected batches (zero when none) — the
// replication reclaim horizon: once pages retired at that epoch can be
// reused here, a follower must not apply the commits that reuse them while
// it still serves snapshots older than the horizon. Callers hold e.mu.
func (e *epochs) collectLocked() ([]PageID, uint64) {
	min := e.oldestLocked()
	i := 0
	var out []PageID
	var maxEpoch uint64
	for ; i < len(e.pending) && e.pending[i].epoch < min; i++ {
		out = append(out, e.pending[i].pages...)
		maxEpoch = e.pending[i].epoch
	}
	if i > 0 {
		e.pending = append([]retireBatch(nil), e.pending[i:]...)
		e.pendingN -= len(out)
	}
	return out, maxEpoch
}

// Snap is a point-in-time read handle on a Store. It pins the epoch it was
// taken at: pages reachable from its root set are not reclaimed until Close.
// A Snap is safe for concurrent use by multiple goroutines; Close may be
// called at most meaningfully once (further calls are no-ops).
type Snap struct {
	s     *Store
	epoch uint64
	roots [NumRoots]PageID
	meta  []byte
	once  sync.Once
}

// Snapshot pins the last committed state and returns a read handle on it.
func (s *Store) Snapshot() *Snap {
	e := &s.ep
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active[e.current]++
	return &Snap{s: s, epoch: e.current, roots: e.published, meta: e.meta}
}

// Epoch reports the committed epoch this snapshot pins.
func (sn *Snap) Epoch() uint64 { return sn.epoch }

// Root returns the page id in the named root slot as of the snapshot.
func (sn *Snap) Root(slot int) PageID { return sn.roots[slot] }

// Store returns the store the snapshot reads from.
func (sn *Snap) Store() *Store { return sn.s }

// Close releases the epoch pin. Once every snapshot at or below a retired
// page's epoch is closed (and the superseding commit has published), the
// page returns to the free list. Safe to call multiple times.
func (sn *Snap) Close() {
	sn.once.Do(func() { sn.s.releaseSnapshot(sn.epoch) })
}

// releaseSnapshot drops one pin of epoch and reclaims what that frees. The
// last pin of an epoch is a state change a waiter can be blocked on (an
// apply in AwaitSnapshotsFrom), so it raises the change signal.
func (s *Store) releaseSnapshot(epoch uint64) {
	e := &s.ep
	e.mu.Lock()
	if n := e.active[epoch]; n <= 1 {
		delete(e.active, epoch)
		e.wakeLocked()
	} else {
		e.active[epoch] = n - 1
	}
	ready := len(e.pending) > 0 && e.pending[0].epoch < e.oldestLocked()
	e.mu.Unlock()
	if ready {
		s.reclaim()
	}
}

// MVCCStats is a point-in-time view of the MVCC machinery, surfaced by the
// server's /v1/stats and /metrics endpoints.
type MVCCStats struct {
	// Epoch is the epoch of the last committed (published) state.
	Epoch uint64 `json:"epoch"`
	// OpenSnapshots counts live snapshot handles across all epochs.
	OpenSnapshots int `json:"open_snapshots"`
	// PendingReclaimPages counts retired pages awaiting reclamation.
	PendingReclaimPages int `json:"pending_reclaim_pages"`
}

// MVCC reports the current epoch, open snapshot count and reclamation
// backlog.
func (s *Store) MVCC() MVCCStats {
	e := &s.ep
	e.mu.Lock()
	defer e.mu.Unlock()
	open := 0
	for _, n := range e.active {
		open += n
	}
	return MVCCStats{Epoch: e.current, OpenSnapshots: open, PendingReclaimPages: e.pendingN}
}
