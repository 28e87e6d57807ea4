package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
)

// This file is the storage half of WAL-shipping replication (package repl
// builds the wire protocol on top of it). The design rides the group
// committer's invariants:
//
//   - Every commit batch is self-describing: prepareLocked always stamps the
//     meta page (epoch + roots), so page 0's image rides in every batch and a
//     batch alone tells a follower which epoch it lands on.
//   - Page images in a batch are immutable (every page image is, once
//     installed in the pool), so the commit hook may retain them with zero
//     copies.
//   - The list of unreachable pages lives in the meta page and in trunk
//     pages, both written through the pool, so they ride in commit batches
//     too. A listed page itself is never written: the primary's page file
//     keeps its last committed image, and so does the follower's, which
//     applied the same batches. The meta page carries the primary's page
//     count, and the apply grows the follower's file to it, so a page grown
//     and freed in one commit exists on both sides. An applied follower's
//     page file stays byte-compatible with the primary's.
//   - A snapshot catch-up ships one epoch's file (CatchUpSnapshot): its
//     meta page and pages, trunk pages included, so a follower promoted
//     right after it reuses what the primary had listed.
//
// A follower applies a batch by installing the images into its own pool and
// running them through the very same group-commit/WAL/checkpoint machinery —
// the applied epoch is durable on the follower under exactly the rules the
// primary used, and a follower crash recovers with the ordinary WAL replay,
// landing on the last fully applied epoch.

// ReplBatch is one durable commit as handed to the replication hook: the
// epoch it published, the root set it published, the primary's reclaim
// horizon at ship time, and the immutable page images (always including
// page 0, the stamped meta page).
type ReplBatch struct {
	Epoch   uint64
	Roots   [NumRoots]PageID
	Horizon uint64
	Pages   []DirtyPage
}

// SetCommitHook installs fn to receive every durable commit right after its
// WAL fsync, in epoch order. A nil fn clears the hook. The hook runs on the
// group-commit leader's goroutine: it must not block for long and must not
// re-enter the store's write paths.
func (s *Store) SetCommitHook(fn func(ReplBatch)) {
	if fn == nil {
		s.commitHook.Store(nil)
		return
	}
	s.commitHook.Store(&fn)
}

// noteHorizon advances the reclaim horizon to epoch (monotonic; zero is a
// no-op). The horizon is the newest retire epoch whose pages have been
// returned to the free list for reuse — a follower serving a snapshot older
// than the horizon could see those pages' bytes change under it, so the
// publisher ships the horizon with every batch and the follower delays
// application while older snapshots are open.
func (s *Store) noteHorizon(epoch uint64) {
	if epoch == 0 {
		return
	}
	for {
		cur := s.horizon.Load()
		if epoch <= cur || s.horizon.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// IsReplica reports whether the store is a replication follower.
func (s *Store) IsReplica() bool { return s.replica.Load() }

// Promote flips a follower store to a writable primary; the caller stops
// the apply loop first. Every listed page counts as retired by the state
// before the applied epoch — snapshots this store still serves may read
// it — and pages past the meta page's count as reusable. Blocked waiters
// are woken to re-read the state: local commits move it from here on.
func (s *Store) Promote() error {
	s.mu.Lock()
	_, ids, err := s.trunksLocked()
	if err == nil && s.replica.Swap(false) {
		s.nfree, s.spilled = 0, len(ids)
		s.ep.retireAt(max(s.meta.epoch, 1)-1, append(ids, s.meta.free...)...)
		err = s.listGrown()
	}
	s.mu.Unlock()
	s.ep.wake()
	s.reclaim()
	return err
}

// PublishedEpoch reports the last published (committed or applied) epoch
// without taking any locks.
func (s *Store) PublishedEpoch() uint64 { return s.pubEpoch.Load() }

// ErrSnapshotInvalidated is returned by reads on a pinned snapshot whose
// pages may have been replaced by a replicated apply: the follower waited
// out its grace period for the snapshot to close, then invalidated it
// rather than let its reads silently follow page ids that now name another
// epoch's pages. (An image the reader already holds is unaffected — images
// are immutable — but its next page read would be of the new state.) The
// read is retryable on a fresh snapshot (or, at the serving layer, on the
// primary).
var ErrSnapshotInvalidated = errors.New("storage: snapshot invalidated by replication apply; retry the read")

// InvalidateSnapshotsBelow marks every snapshot with epoch < limit invalid:
// their subsequent page reads fail with ErrSnapshotInvalidated. The mark is
// monotonic. It must be stored BEFORE the apply replaces any pool frame.
// A pool hit takes the pool mutex to find its frame; a miss reads the page
// with the mutex released, but re-takes it afterwards, and the post-apply
// bytes reach the page's frame (Put) before they reach the pager (commit
// and writeback). So a reader that gets a post-apply image, from a frame
// or from the pager, is ordered after the apply's Put, hence after this
// store, and its post-read check sees the mark. Snapshots below the
// mark no longer hold back AwaitSnapshotsFrom, so its waiters are woken.
func (s *Store) InvalidateSnapshotsBelow(limit uint64) {
	for {
		cur := s.snapInvalid.Load()
		if limit <= cur {
			return
		}
		if s.snapInvalid.CompareAndSwap(cur, limit) {
			s.ep.wake()
			return
		}
	}
}

// snapshotInvalid reports whether a snapshot pinned at epoch has been
// invalidated by a replicated apply.
func (s *Store) snapshotInvalid(epoch uint64) bool {
	return epoch < s.snapInvalid.Load()
}

// BatchMeta decodes the meta-page image riding in a commit batch, returning
// the epoch and root set the batch publishes. ok is false when the batch
// carries no valid meta page. A follower checks a snapshot catch-up's pages
// against the roots its closing frame names with it.
func BatchMeta(pages []DirtyPage) (epoch uint64, roots [NumRoots]PageID, ok bool) {
	for _, p := range pages {
		if p.ID != 0 {
			continue
		}
		var m meta
		if err := m.decode(p.Data); err != nil {
			return 0, roots, false
		}
		return m.epoch, m.roots, true
	}
	return 0, roots, false
}

// CatchUpSnapshot pins a snapshot for a catch-up to ship whole: the meta
// page image of its epoch, and the pages [1, pages) it records, read while
// the snapshot is open. None of the epoch's trunk pages has been handed
// out, and none is while the snapshot is open (a consumed trunk is retired
// instead): a trunk page handed out by a transaction not yet published
// makes it wait for that epoch. It returns ctx's error when ctx ends first.
func (s *Store) CatchUpSnapshot(ctx context.Context) (sn *Snap, metaPage []byte, pages PageID, err error) {
	for {
		s.mu.Lock()
		handout := s.handout
		if handout <= s.PublishedEpoch() {
			sn = s.Snapshot()
			s.mu.Unlock()
			var m meta
			err := m.decode(sn.meta)
			return sn, sn.meta, m.pageCount, err
		}
		s.mu.Unlock()
		if err := s.AwaitEpoch(ctx, handout); err != nil {
			return nil, nil, 0, err
		}
	}
}

// errNotReplica is returned by ApplyReplicated on a store that was not
// opened with OpenReplica (or that has been promoted).
var errNotReplica = errors.New("storage: not a replica")

// errReplica is returned when a local commit is attempted on a replica
// store: a replica's epochs advance only through ApplyReplicated, so a
// local commit would fork its history from the primary's.
var errReplica = errors.New("storage: replica stores are read-only")

// ApplyReplicated installs one replicated commit batch: the page images are
// written into the pool (growing the file to the primary's page count and
// past every page in the batch), the meta image in the
// batch becomes the store's meta, and the whole batch is committed through
// the ordinary group-commit path — WAL append + fsync on the follower's own
// log, writeback insert, epoch publish. Batches must arrive in epoch order
// and strictly beyond the last applied epoch; a snapshot catch-up is applied
// as one giant batch (see CatchUpSnapshot).
//
// Crash safety: a crash mid-append leaves a torn WAL tail, which recovery
// discards — the store reopens on the previous applied epoch and the
// follower resumes from there.
func (s *Store) ApplyReplicated(epoch uint64, pages []DirtyPage) error {
	if s.wal == nil || s.wb == nil {
		return errors.New("storage: replica apply requires a file-backed store")
	}
	if len(pages) == 0 {
		return errors.New("storage: empty replicated batch")
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return errClosed
	}
	if !s.replica.Load() {
		s.mu.Unlock()
		return errNotReplica
	}
	if epoch <= s.meta.epoch {
		s.mu.Unlock()
		return fmt.Errorf("storage: replicated epoch %d not beyond applied epoch %d", epoch, s.meta.epoch)
	}
	m, err := checkReplicated(epoch, pages)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	grow := m.pageCount
	for _, p := range pages {
		grow = max(grow, p.ID+1)
	}
	if err := s.growTo(grow); err != nil {
		s.mu.Unlock()
		return err
	}
	for _, p := range pages {
		// The batch's buffers stay the caller's (one receive buffer may back
		// many pages): the pool gets an image of its own, and a reader still
		// holding the page's previous image keeps it.
		if err := s.pool.Put(p.ID, bytes.Clone(p.Data)); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.meta = m
	s.metaDirty = false // the batch's page 0 is this meta
	req, err := s.captureLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if req == nil {
		return nil
	}
	if err := s.gc.wait(s, req); err != nil {
		return err
	}
	s.maybeCheckpoint()
	return nil
}

// checkReplicated accepts a replicated batch whole or not at all, before any
// of it reaches the pool: every image is a page, exactly one is the meta
// page, and it decodes to the batch's epoch. It returns that meta.
func checkReplicated(epoch uint64, pages []DirtyPage) (meta, error) {
	var m meta
	metas := 0
	for _, p := range pages {
		if len(p.Data) != PageSize {
			return m, fmt.Errorf("storage: replicated page %d is %d bytes, not %d", p.ID, len(p.Data), PageSize)
		}
		if p.ID != 0 {
			continue
		}
		if metas++; metas > 1 {
			return m, errors.New("storage: replicated batch has two meta pages")
		}
		if err := m.decode(p.Data); err != nil {
			return m, fmt.Errorf("storage: replicated batch meta: %w", err)
		}
	}
	if metas == 0 {
		return m, errors.New("storage: replicated batch has no meta page")
	}
	if m.epoch != epoch {
		return m, fmt.Errorf("storage: replicated batch meta epoch %d != %d", m.epoch, epoch)
	}
	return m, nil
}
