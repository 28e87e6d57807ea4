package storage

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file implements async checkpointing: committed page images accumulate
// in an in-memory writeback table once their WAL fsync lands, and a
// background checkpointer writes them to the page file in large sorted,
// coalesced batches — only then resetting the WAL. The WAL remains the
// durability boundary; the page file is allowed to lag arbitrarily far
// behind it, because recovery replays the WAL tail exactly as before (now
// just a longer tail).
//
// Safety invariants:
//
//   - A page image enters `live` at prepare time (before the pool's dirty
//     flags clear), so a pool miss always finds the newest committed image.
//   - Only images whose WAL batch has fsynced (epoch ≤ durable) are ever
//     written to the page file: a torn page-file write is then always
//     repairable by WAL replay. The durable mark advances under the WAL
//     mutex before the WAL's size does, so it is ordered against Size()
//     samples.
//   - The WAL is reset only once the page file holds every batch in it:
//     batches appended after the pass sampled the size are written back
//     under the WAL mutex first (wal.resetIf's catch-up), so a reset can
//     never discard a batch the checkpoint did not write back.

// Default checkpoint policy: flush when the writeback backlog reaches
// defaultCheckpointBytes, or every defaultCheckpointInterval otherwise.
const (
	defaultCheckpointBytes    = int64(4 << 20)
	defaultCheckpointInterval = time.Second

	// backpressureFactor times the byte threshold is the hard backlog cap:
	// a committer whose Wait observes more runs a synchronous checkpoint,
	// and so does one that sees the WAL grown by as much since the last
	// pass.
	backpressureFactor = 4
)

// wbEntry is one committed page image awaiting page-file writeback.
type wbEntry struct {
	epoch uint64
	data  []byte
}

// writeback is the table of committed-but-not-yet-checkpointed page images.
// Reads consult `live` first (newest images), then `flushing` (the capture a
// checkpoint is currently writing), then fall through to the page file.
//
// live keeps, per page and oldest first, the newest WAL-durable image and
// the prepared images above it. A prepared image must not replace the
// durable one: the checkpoint writes the durable image back before the WAL
// batch holding it is dropped, and the prepared batch is not in the WAL yet.
type writeback struct {
	mu        sync.Mutex
	live      map[PageID][]wbEntry
	flushing  map[PageID]wbEntry
	durable   uint64 // highest epoch whose WAL batch has fsynced
	liveBytes int64  // PageSize per page in live, however many images it holds
	flushBy   int64
}

func newWriteback() *writeback {
	return &writeback{live: make(map[PageID][]wbEntry)}
}

// insert records the images of one prepared commit. Called under Store.mu,
// so images arrive in epoch order. Durable images older than the newest
// durable one are pruned here: a chain grows only by commits in flight.
func (wb *writeback) insert(epoch uint64, pages []DirtyPage) {
	wb.mu.Lock()
	for _, p := range pages {
		chain := wb.live[p.ID]
		if len(chain) == 0 {
			wb.liveBytes += PageSize
		} else if n := wb.durableLen(chain); n > 1 {
			chain = slices.Delete(chain, 0, n-1)
		}
		wb.live[p.ID] = append(chain, wbEntry{epoch: epoch, data: p.Data})
	}
	wb.mu.Unlock()
}

// durableLen reports how many images of chain, a prefix, are WAL-durable.
func (wb *writeback) durableLen(chain []wbEntry) int {
	n := 0
	for n < len(chain) && chain[n].epoch <= wb.durable {
		n++
	}
	return n
}

// setDurable marks every image at or below epoch as WAL-durable (callable
// from the WAL's post-fsync hook).
func (wb *writeback) setDurable(epoch uint64) {
	wb.mu.Lock()
	if epoch > wb.durable {
		wb.durable = epoch
	}
	wb.mu.Unlock()
}

// read copies the newest pending image of id into dst, reporting whether one
// exists.
func (wb *writeback) read(id PageID, dst []byte) bool {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if chain := wb.live[id]; len(chain) > 0 {
		copy(dst[:PageSize], chain[len(chain)-1].data)
		return true
	}
	if e, ok := wb.flushing[id]; ok {
		copy(dst[:PageSize], e.data)
		return true
	}
	return false
}

// capture moves the newest WAL-durable image of every live page into the
// flushing set and returns them sorted by page id. Images of
// not-yet-fsynced epochs stay live for a later pass. Callers serialize via
// the checkpointer mutex, so flushing is empty on entry.
func (wb *writeback) capture() []DirtyPage {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if len(wb.live) == 0 {
		return nil
	}
	if wb.flushing == nil {
		wb.flushing = make(map[PageID]wbEntry)
	}
	out := make([]DirtyPage, 0, len(wb.live))
	for id, chain := range wb.live {
		n := wb.durableLen(chain)
		if n == 0 {
			continue
		}
		e := chain[n-1]
		if chain = slices.Delete(chain, 0, n); len(chain) == 0 {
			delete(wb.live, id)
			wb.liveBytes -= PageSize
		} else {
			wb.live[id] = chain
		}
		wb.flushing[id] = e
		wb.flushBy += PageSize
		out = append(out, DirtyPage{ID: id, Data: e.data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// finish drops the flushing set after its images are durably in the page
// file.
func (wb *writeback) finish() {
	wb.mu.Lock()
	wb.flushing = nil
	wb.flushBy = 0
	wb.mu.Unlock()
}

// fail returns the flushing set to live after a writeback error, each image
// under the newer ones its page gained meanwhile (a prepared image above it
// is not in the WAL yet, so it cannot stand in for this one).
func (wb *writeback) fail() {
	wb.mu.Lock()
	for id, e := range wb.flushing {
		chain := wb.live[id]
		if len(chain) == 0 {
			wb.liveBytes += PageSize
		}
		wb.live[id] = append([]wbEntry{e}, chain...)
	}
	wb.flushing = nil
	wb.flushBy = 0
	wb.mu.Unlock()
}

// backlog reports the bytes of page images awaiting writeback.
func (wb *writeback) backlog() int64 {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.liveBytes + wb.flushBy
}

// writebackPager interposes the writeback table between the buffer pool and
// the page file: a pool miss (including an eviction re-read and a free
// list trunk read) must see committed images that have not been
// checkpointed yet. All other operations delegate to the real pager.
type writebackPager struct {
	pageFile
	wb *writeback
}

func (p *writebackPager) ReadPage(id PageID, buf []byte) error {
	if p.wb.read(id, buf) {
		return nil
	}
	return p.pageFile.ReadPage(id, buf)
}

// checkpointer owns the background flush goroutine and serializes
// checkpoint passes (background, backpressure and Close/Check all funnel
// through runCheckpoint).
type checkpointer struct {
	mu      sync.Mutex // serializes checkpoint passes
	kick    chan struct{}
	rearm   chan struct{} // the interval changed: restart the timer, run no pass
	stop    chan struct{}
	done    chan struct{}
	started bool
	walMark atomic.Int64 // WAL size at the end of the last pass: zero unless its reset was refused
}

// SetCheckpointPolicy adjusts the byte threshold and the age interval of
// the background checkpointer. Non-positive values leave the respective
// knob unchanged. Safe to call at any time.
func (s *Store) SetCheckpointPolicy(bytes int64, interval time.Duration) {
	if bytes > 0 {
		s.ckptBytes.Store(bytes)
	}
	if interval > 0 && s.ckptInterval.Swap(int64(interval)) != int64(interval) {
		select {
		case s.ckpt.rearm <- struct{}{}:
		default:
		}
	}
}

func (s *Store) checkpointThreshold() int64 {
	if n := s.ckptBytes.Load(); n > 0 {
		return n
	}
	return defaultCheckpointBytes
}

func (s *Store) startCheckpointer() {
	s.ckpt.kick = make(chan struct{}, 1)
	s.ckpt.rearm = make(chan struct{}, 1)
	s.ckpt.stop = make(chan struct{})
	s.ckpt.done = make(chan struct{})
	s.ckpt.started = true
	go s.checkpointLoop()
}

func (s *Store) stopCheckpointer() {
	s.ckpt.mu.Lock()
	started := s.ckpt.started
	s.ckpt.started = false
	s.ckpt.mu.Unlock()
	if !started {
		return
	}
	close(s.ckpt.stop)
	<-s.ckpt.done
}

func (s *Store) checkpointLoop() {
	defer close(s.ckpt.done)
	for {
		interval := time.Duration(s.ckptInterval.Load())
		if interval <= 0 {
			interval = defaultCheckpointInterval
		}
		timer := time.NewTimer(interval)
		select {
		case <-s.ckpt.stop:
			timer.Stop()
			return
		case <-s.ckpt.kick:
			timer.Stop()
		case <-s.ckpt.rearm:
			timer.Stop()
			continue
		case <-timer.C:
		}
		// Best-effort: an I/O error here resurfaces on the next synchronous
		// checkpoint (Close/Check) or backpressure pass.
		s.runCheckpoint()
	}
}

// maybeCheckpoint applies the checkpoint policy after a commit: kick the
// background flusher once the backlog crosses the byte threshold, and run a
// synchronous pass (backpressure) once the backlog crosses the hard cap or
// the WAL has grown by as much since the last pass — rewrites of the same
// pages grow the log, not the backlog. Growth is counted from the last
// pass, not from zero: a pass may end with the log whole, when another
// handle has reopened the path and its generation is no longer this
// handle's (resetIf refuses it), and such a log must not force a pass per
// commit. Returns the time spent in a synchronous pass, if any.
func (s *Store) maybeCheckpoint() time.Duration {
	if s.wb == nil {
		return 0
	}
	backlog := s.wb.backlog()
	thresh := s.checkpointThreshold()
	if backlog >= backpressureFactor*thresh || s.wal.Size()-s.ckpt.walMark.Load() >= backpressureFactor*thresh {
		start := time.Now()
		s.runCheckpoint()
		return time.Since(start)
	}
	if backlog >= thresh {
		select {
		case s.ckpt.kick <- struct{}{}:
		default:
		}
	}
	return 0
}

// Checkpoint synchronously writes every WAL-durable pending image to the
// page file and resets the WAL. A no-op on in-memory stores.
func (s *Store) Checkpoint() error {
	if s.wb == nil {
		return nil
	}
	return s.runCheckpoint()
}

// CheckpointBacklog reports the bytes of committed page images not yet
// written back to the page file.
func (s *Store) CheckpointBacklog() int64 {
	if s.wb == nil {
		return 0
	}
	return s.wb.backlog()
}

// WALSize reports the current size of the write-ahead log in bytes (zero
// for in-memory stores).
func (s *Store) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Size()
}

// runCheckpoint performs one checkpoint pass: sample the WAL size, write the
// WAL-durable writeback images back, then reset the WAL — after writing
// back, under the WAL mutex, whatever was committed since the sample.
// Passes are serialized; concurrent callers stack up harmlessly.
func (s *Store) runCheckpoint() error {
	s.ckpt.mu.Lock()
	defer s.ckpt.mu.Unlock()
	walSize := s.wal.Size()
	n, err := s.writeBack()
	if err == nil {
		var caught int64
		_, err = s.wal.resetIf(walSize, func() (err error) {
			caught, err = s.writeBack()
			return err
		})
		n += caught
	}
	if n > 0 {
		obs.Engine.Add(obs.CtrCheckpointRuns, 1)
	}
	s.ckpt.walMark.Store(s.wal.Size())
	return err
}

// writeBack writes every WAL-durable pending image to the page file, sorted
// and coalesced, syncs it, and reports how many pages it wrote.
func (s *Store) writeBack() (int64, error) {
	pages := s.wb.capture()
	if len(pages) == 0 {
		return 0, nil
	}
	if err := s.pager.writePages(pages); err != nil {
		s.wb.fail()
		return 0, err
	}
	if err := s.pager.sync(); err != nil {
		s.wb.fail()
		return 0, err
	}
	s.wb.finish()
	n := int64(len(pages))
	obs.Engine.Add(obs.CtrCheckpointPages, n)
	obs.Engine.Add(obs.CtrCheckpointBytes, n*PageSize)
	obs.Engine.Add(obs.CtrPagesWritten, n)
	return n, nil
}
