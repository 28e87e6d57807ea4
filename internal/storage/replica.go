package storage

import (
	"bytes"
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
//   - Freed pages carry their free-list link bytes through the pool, so the
//     link writes are part of commit batches too: an applied follower's page
//     file is byte-compatible with the primary's.
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

// ReclaimHorizon reports the newest retire epoch whose pages have been
// reused (see noteHorizon).
func (s *Store) ReclaimHorizon() uint64 { return s.horizon.Load() }

// IsReplica reports whether the store is a replication follower.
func (s *Store) IsReplica() bool { return s.replica.Load() }

// Promote flips a follower store to a writable primary. The caller (the
// serving layer) is responsible for stopping the apply loop first and for
// running a reclamation sweep afterwards: replicated snapshot catch-ups
// synthesize a meta page with an empty free list, so a promoted store may
// carry leaked pages until swept. Blocked waiters are woken to re-read
// the state: what moves it from here on is local commits.
func (s *Store) Promote() {
	s.replica.Store(false)
	s.ep.wake()
}

// PublishedEpoch reports the last published (committed or applied) epoch
// without taking any locks.
func (s *Store) PublishedEpoch() uint64 { return s.pubEpoch.Load() }

// SetWALRetainFloor sets the WAL retain floor: while non-zero, WAL
// truncation is refused whenever the log still holds a batch at or beyond
// the floor epoch, so a connected follower can always be caught up from the
// log. Zero clears the floor. No-op on in-memory stores.
func (s *Store) SetWALRetainFloor(epoch uint64) {
	if s.wal != nil {
		s.wal.RetainFrom(epoch)
	}
}

// SetWALRetainCap bounds the WAL bytes a retain floor may pin before
// truncation proceeds anyway (the laggard falls back to a snapshot
// catch-up). Non-positive means unlimited. No-op on in-memory stores.
func (s *Store) SetWALRetainCap(bytes int64) {
	if s.wal != nil {
		s.wal.SetRetainCap(bytes)
	}
}

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
// monotonic. It must be stored BEFORE the apply replaces any pool frame —
// pool reads and writes serialize on the pool mutex, so a reader that
// gets a post-apply image is ordered after the apply's Put, hence after
// this store, and its post-read check sees the mark. Snapshots below the
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

// WALEpochRange reports the first and last commit epochs whose batches are
// currently in the WAL (zeros when empty or in-memory). The range is what
// the publisher consults to decide between log catch-up and a full
// snapshot.
func (s *Store) WALEpochRange() (first, last uint64) {
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.ContentEpochs()
}

// ScanWALBatches replays every committed batch currently in the WAL through
// fn, oldest first. The page slices passed to fn are private copies. Use
// BatchMeta to recover each batch's epoch and roots.
func (s *Store) ScanWALBatches(fn func(pages []DirtyPage) error) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.ScanCommitted(fn)
}

// BatchMeta decodes the meta-page image riding in a commit batch, returning
// the epoch and root set the batch publishes. ok is false when the batch
// carries no valid meta page (e.g. a pre-replication WAL record).
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

// EncodeReplicaMeta builds the meta-page image a snapshot catch-up applies:
// the snapshot's epoch and roots, an empty free list (the primary's free
// list is not part of the reachable-page stream; dropping it only leaks
// pages, which the post-promote sweep reclaims) and the clean flag unset
// (so an eventual promote-then-reopen sweeps).
func EncodeReplicaMeta(epoch uint64, roots [NumRoots]PageID) []byte {
	m := meta{roots: roots, epoch: epoch}
	buf := make([]byte, PageSize)
	m.encode(buf)
	return buf
}

// ErrNotReplica is returned by ApplyReplicated on a store that was not
// opened with OpenReplica (or that has been promoted).
var ErrNotReplica = errors.New("storage: not a replica")

// ErrReplica is returned when a local commit is attempted on a replica
// store: a replica's epochs advance only through ApplyReplicated, so a
// local commit would fork its history from the primary's.
var ErrReplica = errors.New("storage: replica stores are read-only")

// ApplyReplicated installs one replicated commit batch: the page images are
// written into the pool (growing the file as needed), the meta image in the
// batch becomes the store's meta, and the whole batch is committed through
// the ordinary group-commit path — WAL append + fsync on the follower's own
// log, writeback insert, epoch publish. Batches must arrive in epoch order
// and strictly beyond the last applied epoch; a snapshot catch-up is applied
// as one giant batch whose meta image is built with EncodeReplicaMeta.
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
		return ErrClosed
	}
	if !s.replica.Load() {
		s.mu.Unlock()
		return ErrNotReplica
	}
	if epoch <= s.meta.epoch {
		s.mu.Unlock()
		return fmt.Errorf("storage: replicated epoch %d not beyond applied epoch %d", epoch, s.meta.epoch)
	}
	var m meta
	sawMeta := false
	for _, p := range pages {
		for s.pager.PageCount() <= p.ID {
			if _, err := s.pool.Grow(); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		// The id may be a reuse of a page some cached decode still names.
		s.dropCached(p.ID)
		// The batch's buffers stay the caller's (one receive buffer may back
		// many pages): the pool gets an image of its own, and a reader still
		// holding the page's previous image keeps it.
		if err := s.pool.Put(p.ID, bytes.Clone(p.Data)); err != nil {
			s.mu.Unlock()
			return err
		}
		if p.ID == 0 {
			if err := m.decode(p.Data); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("storage: replicated batch meta: %w", err)
			}
			sawMeta = true
		}
	}
	if !sawMeta {
		s.mu.Unlock()
		return errors.New("storage: replicated batch has no meta page")
	}
	if m.epoch != epoch {
		s.mu.Unlock()
		return fmt.Errorf("storage: replicated batch meta epoch %d != %d", m.epoch, epoch)
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
