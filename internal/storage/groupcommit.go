package storage

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// This file implements group commit: concurrent commit requests against one
// store coalesce into a single WAL append + fsync. Commit is split into two
// halves:
//
//   - prepare (under Store.mu): stamp the next epoch into the meta page,
//     collect the dirty pages once (their images are immutable, so the
//     batch shares them with the pool: nothing is copied), insert them
//     into the writeback table (see checkpoint.go), clear the
//     pool's dirty flags, and enqueue a commitReq. Enqueueing while still
//     holding Store.mu guarantees WAL batch order == epoch order.
//
//   - wait (outside all store locks): the first waiter to find no flush in
//     progress becomes the leader, drains the whole queue, appends every
//     batch to the WAL with one write + one fsync, publishes the last epoch,
//     and signals every waiter. Followers just block on their done channel.
//
// A commit is acknowledged once its batch's WAL fsync lands — the WAL is the
// durability boundary. Writing the images back to the page file is the
// checkpointer's job.

// commitReq is one prepared commit waiting for its WAL flush.
type commitReq struct {
	epoch uint64
	roots [NumRoots]PageID
	pages []DirtyPage // the pool's immutable images as of prepare
	meta  []byte      // pages' meta page image, published with the epoch
	done  chan error  // buffered(1); receives the flush result

	// Filled by the leader before done is signalled (the channel receive
	// orders the reads): observability for the waiter's trace span.
	walDur time.Duration // wall time of the batch's WAL append + fsync
	batchN int           // commits coalesced into the batch this req rode in
}

// groupQueue coalesces concurrent commits into single WAL flushes.
type groupQueue struct {
	mu      sync.Mutex
	queue   []*commitReq
	leading bool // a leader is mid-flush; new arrivals must wait
}

// enqueue appends a prepared request. Callers hold Store.mu, which is what
// makes the queue order the epoch order.
func (g *groupQueue) enqueue(req *commitReq) {
	g.mu.Lock()
	g.queue = append(g.queue, req)
	g.mu.Unlock()
}

// wait blocks until req's batch is durable, leading a flush if no one else
// is. It may flush a batch that does not contain req (when req's own batch
// was flushed concurrently between the done poll and the lock); that drain
// still preserves epoch order, and the loop then observes req.done.
func (g *groupQueue) wait(s *Store, req *commitReq) error {
	for {
		select {
		case err := <-req.done:
			return err
		default:
		}
		g.mu.Lock()
		if g.leading || len(g.queue) == 0 {
			g.mu.Unlock()
			return <-req.done
		}
		g.leading = true
		batch := g.queue
		g.queue = nil
		g.mu.Unlock()

		for {
			err := s.flushBatch(batch)
			for _, r := range batch {
				r.done <- err
			}
			// Requests that arrived mid-flush found leading set and went to
			// sleep on their done channels; if the leader just stepped down
			// they would sleep forever. Re-drain until the queue is empty —
			// only then is it safe to give up leadership (enqueue and this
			// check are both under g.mu, so no request can slip between).
			g.mu.Lock()
			if len(g.queue) == 0 {
				g.leading = false
				g.mu.Unlock()
				break
			}
			batch = g.queue
			g.queue = nil
			g.mu.Unlock()
		}
	}
}

// flushBatch appends every batch to the WAL in epoch order with one write +
// one fsync, marks the covered epochs durable for the checkpointer, and
// publishes the newest epoch to snapshots.
func (s *Store) flushBatch(batch []*commitReq) error {
	batches := make([][]DirtyPage, len(batch))
	for i, r := range batch {
		batches[i] = r.pages
	}
	last := batch[len(batch)-1]
	start := time.Now()
	// The durability mark runs under the WAL mutex, before the size grows: once
	// a Size() sample can observe these bytes, the checkpointer can also see
	// that their epochs are durable (so it never resets past an image it
	// skipped).
	err := s.wal.appendGroup(batches, func() { s.wb.setDurable(last.epoch) })
	walDur := time.Since(start)
	if err != nil {
		return err
	}
	s.publish(last.epoch, last.roots, last.meta)
	// Replication hook: hand each durable commit to the publisher, in epoch
	// order, after the fsync that made it durable. The page slabs are
	// immutable after prepare, so the hook may retain them without copying.
	if h := s.commitHook.Load(); h != nil {
		hz := s.horizon.Load()
		for _, r := range batch {
			(*h)(ReplBatch{Epoch: r.epoch, Roots: r.roots, Horizon: hz, Pages: r.pages})
		}
	}
	n := int64(len(batch))
	for _, r := range batch {
		r.walDur = walDur
		r.batchN = len(batch)
	}
	obs.Engine.Add(obs.CtrCommits, n)
	obs.Engine.Add(obs.CtrGroupBatches, 1)
	obs.Engine.Add(obs.CtrGroupFsyncsSaved, n-1)
	obs.GroupBatch.Observe(time.Duration(n) * time.Microsecond)
	return nil
}

// publish makes epoch the state new snapshots read, and wakes whoever is
// blocked in AwaitEpoch on it — after the update, under the same lock, so
// the woken waiter reads the epoch it was woken for. Publication is
// monotonic: group flushes always carry the newest epoch of their batch, so
// intermediate epochs of a batch publish implicitly.
func (s *Store) publish(epoch uint64, roots [NumRoots]PageID, meta []byte) {
	e := &s.ep
	e.mu.Lock()
	if epoch > e.current {
		e.current = epoch
		e.published = roots
		e.meta = meta
		s.pubEpoch.Store(epoch) // the lock-free mirror of current
		e.wakeLocked()
	}
	e.mu.Unlock()
}

// CommitWaiter is the handle returned by CommitAsync. Wait blocks until the
// commit's WAL fsync has landed (or returns the prepare error). Waiters are
// not safe for concurrent use; Wait may be called more than once and
// returns the same result.
type CommitWaiter struct {
	s       *Store
	req     *commitReq // nil: nothing to flush (clean, or mem-store fast path)
	err     error
	done    bool
	ckptDur time.Duration
}

// Wait blocks until the commit is durable and returns its result. It also
// runs the post-publish reclamation pass and applies checkpoint
// backpressure, exactly like the synchronous Commit of old.
func (w *CommitWaiter) Wait() error {
	if w == nil || w.done {
		if w == nil {
			return nil
		}
		return w.err
	}
	w.done = true
	if w.req != nil {
		w.err = w.s.gc.wait(w.s, w.req)
	}
	if w.s != nil && w.err == nil {
		w.s.reclaim()
		w.ckptDur = w.s.maybeCheckpoint()
	}
	return w.err
}

// WALTime reports the wall time of the WAL append + fsync this commit rode
// in (shared across the batch). Zero before Wait or when nothing flushed.
func (w *CommitWaiter) WALTime() time.Duration {
	if w == nil || w.req == nil {
		return 0
	}
	return w.req.walDur
}

// BatchSize reports how many commits were coalesced into this commit's WAL
// flush (zero before Wait or when nothing flushed).
func (w *CommitWaiter) BatchSize() int {
	if w == nil || w.req == nil {
		return 0
	}
	return w.req.batchN
}

// CheckpointTime reports the duration of the inline backpressure checkpoint
// this Wait ran, if any.
func (w *CommitWaiter) CheckpointTime() time.Duration {
	if w == nil {
		return 0
	}
	return w.ckptDur
}

// CommitAsync begins a commit and returns a waiter for its durability. The
// prepare happens synchronously (so the caller may release its write mutex
// immediately afterwards — the transaction's pages are captured); the WAL
// flush happens when Wait is called, coalescing with every other commit
// prepared in the meantime.
func (s *Store) CommitAsync() *CommitWaiter {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return &CommitWaiter{err: errClosed, done: true}
	}
	req, err := s.prepareLocked()
	s.mu.Unlock()
	if err != nil {
		return &CommitWaiter{s: s, err: err, done: true}
	}
	return &CommitWaiter{s: s, req: req}
}

// NextEpoch reports the epoch the next captured commit will stamp: one past
// the last prepared epoch, which may not have published yet.
func (s *Store) NextEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta.epoch + 1
}

// prepareLocked stamps the next epoch, captures the transaction's dirty
// pages and enqueues them for the next group flush. Callers hold Store.mu
// (or, during init, have exclusive access). A nil request means there was
// nothing to commit or the store is in-memory (committed inline).
func (s *Store) prepareLocked() (*commitReq, error) {
	if s.pool.dirtyCount() == 0 && !s.metaDirty {
		return nil, nil
	}
	if s.replica.Load() {
		return nil, errReplica
	}
	// Stamp the new epoch into the meta page before collecting, so the
	// stamped meta page is part of the batch and recovery lands on it.
	s.meta.epoch++
	s.writeMeta()
	return s.captureLocked()
}

// captureLocked collects the dirty pages under the already-stamped meta
// (prepareLocked stamps the next epoch; the replica apply path installs the
// primary's meta image verbatim) and enqueues them for the next group
// flush. Callers hold Store.mu.
func (s *Store) captureLocked() (*commitReq, error) {
	dirty := s.pool.dirtyPages()
	// Every batch carries its stamped meta page, and page 0 sorts first.
	meta := dirty[0].Data

	if s.wal == nil || s.wb == nil {
		// In-memory store: no WAL, no checkpointer — write straight back
		// and publish, as the old synchronous path did.
		for _, d := range dirty {
			if err := s.pager.writePage(d.ID, d.Data); err != nil {
				return nil, err
			}
		}
		obs.Engine.Add(obs.CtrPagesWritten, int64(len(dirty)))
		s.pool.clearDirty()
		s.fresh = make(map[PageID]struct{})
		s.publish(s.meta.epoch, s.meta.roots, meta)
		obs.Engine.Add(obs.CtrCommits, 1)
		return nil, nil
	}

	// The images are immutable, so the WAL encode and the checkpoint
	// writeback — which happen after Store.mu is released, while the writer
	// may already be rewriting the same pages for the next epoch — share
	// them with the pool instead of copying.
	pages := dirty
	// Insert into the writeback table before clearing dirty flags: once
	// clearDirty may evict a frame, a pool miss must find the committed
	// image in the writeback table rather than stale bytes on disk.
	s.wb.insert(s.meta.epoch, pages)
	s.pool.clearDirty()
	s.fresh = make(map[PageID]struct{})
	req := &commitReq{
		epoch: s.meta.epoch,
		roots: s.meta.roots,
		pages: pages,
		meta:  meta,
		done:  make(chan error, 1),
	}
	s.gc.enqueue(req)
	return req, nil
}
