package repl

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

const (
	// ringBudgetBytes bounds the in-memory batch ring. The ring only fills
	// while at least one subscriber is connected; beyond the budget the
	// oldest batches fall off and laggards catch up from the WAL instead.
	ringBudgetBytes = 32 << 20
	// pingInterval paces keepalive frames to caught-up subscribers.
	pingInterval = 3 * time.Second
	// snapChunkPages sizes the page frames of a snapshot catch-up.
	snapChunkPages = 256
	// streamWriteTimeout bounds each write on a subscriber stream. A
	// follower whose connection hangs (stops reading but stays
	// established) trips it on the next frame or ping, so the stream ends,
	// the subscriber unregisters, and its WAL retain floor is released
	// instead of pinning the log forever.
	streamWriteTimeout = 30 * time.Second
)

// Publisher streams one shard store's durable commits to replication
// subscribers. It hooks the group committer's post-fsync point, keeps a
// bounded ring of recent batches for live shipping, holds the store's WAL
// retain floor at the oldest epoch a connected subscriber still needs,
// and serves cold subscribers a full page-file snapshot pinned at one
// epoch. A publisher with no subscribers costs one atomic load per
// commit and retains nothing.
type Publisher struct {
	store *storage.Store

	mu        sync.Mutex
	ring      []storage.ReplBatch // contiguous epochs, oldest first
	ringBytes int
	subs      map[*subscriber]struct{}
}

// subscriber is one connected stream's cursor. next (the first epoch the
// stream has not shipped) is guarded by the publisher mutex so the floor
// computation reads a consistent set.
type subscriber struct {
	next uint64
	ch   chan struct{} // cap 1; poked when new batches enter the ring
}

// NewPublisher hooks the store's commit stream. Exactly one publisher
// may own a store's commit hook.
func NewPublisher(store *storage.Store) *Publisher {
	p := &Publisher{store: store, subs: make(map[*subscriber]struct{})}
	store.SetCommitHook(p.onCommit)
	return p
}

// Close unhooks the publisher from the store. Active streams end when
// their contexts do.
func (p *Publisher) Close() { p.store.SetCommitHook(nil) }

// Store returns the shard store this publisher ships.
func (p *Publisher) Store() *storage.Store { return p.store }

// Subscribers reports the number of connected streams.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// onCommit is the storage commit hook: it runs on the group-commit
// leader's goroutine once per durable commit, in epoch order.
func (p *Publisher) onCommit(b storage.ReplBatch) {
	p.mu.Lock()
	if len(p.subs) == 0 {
		p.ring, p.ringBytes = nil, 0
		p.mu.Unlock()
		return
	}
	p.ring = append(p.ring, b)
	p.ringBytes += len(b.Pages) * storage.PageSize
	// Keep at least the newest batch even when it alone busts the budget,
	// so a single giant commit can still ship from the ring.
	for p.ringBytes > ringBudgetBytes && len(p.ring) > 1 {
		p.ringBytes -= len(p.ring[0].Pages) * storage.PageSize
		p.ring = p.ring[1:]
	}
	for sub := range p.subs {
		select {
		case sub.ch <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// register adds a subscriber cursor and immediately pins the WAL retain
// floor at it, before any catch-up source is consulted — so a truncation
// can never race away batches the new subscriber was about to read.
func (p *Publisher) register(from uint64) *subscriber {
	sub := &subscriber{next: from, ch: make(chan struct{}, 1)}
	p.mu.Lock()
	p.subs[sub] = struct{}{}
	p.updateFloorLocked()
	p.mu.Unlock()
	return sub
}

func (p *Publisher) unregister(sub *subscriber) {
	p.mu.Lock()
	delete(p.subs, sub)
	if len(p.subs) == 0 {
		p.ring, p.ringBytes = nil, 0
	}
	p.updateFloorLocked()
	p.mu.Unlock()
}

// advance moves a subscriber's cursor past a shipped epoch and re-derives
// the retain floor.
func (p *Publisher) advance(sub *subscriber, next uint64) {
	p.mu.Lock()
	sub.next = next
	p.updateFloorLocked()
	p.mu.Unlock()
}

// updateFloorLocked sets the store's WAL retain floor to the oldest epoch
// any connected subscriber still needs (zero — no floor — when none are
// connected). Callers hold p.mu.
func (p *Publisher) updateFloorLocked() {
	var floor uint64
	for s := range p.subs {
		if floor == 0 || s.next < floor {
			floor = s.next
		}
	}
	p.store.SetWALRetainFloor(floor)
}

// ringFrom returns the ring batches from epoch next on. ok is false when
// the ring cannot serve the cursor (empty, or next has fallen off the
// front); ok with an empty slice means the cursor is past the ring's end
// (caught up with everything shipped so far).
func (p *Publisher) ringFrom(next uint64) ([]storage.ReplBatch, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ring) == 0 {
		return nil, false
	}
	first, last := p.ring[0].Epoch, p.ring[len(p.ring)-1].Epoch
	if next < first {
		return nil, false
	}
	if next > last {
		return nil, true
	}
	i := 0
	for i < len(p.ring) && p.ring[i].Epoch < next {
		i++
	}
	return append([]storage.ReplBatch(nil), p.ring[i:]...), true
}

// PublisherStatus is one publisher's /v1/repl/status entry.
type PublisherStatus struct {
	Epoch       uint64 `json:"epoch"`
	Subscribers int    `json:"subscribers"`
	WALFirst    uint64 `json:"wal_first_epoch"`
	WALLast     uint64 `json:"wal_last_epoch"`
}

// Status reports the publisher's shipping state.
func (p *Publisher) Status() PublisherStatus {
	first, last := p.store.WALEpochRange()
	return PublisherStatus{
		Epoch:       p.store.PublishedEpoch(),
		Subscribers: p.Subscribers(),
		WALFirst:    first,
		WALLast:     last,
	}
}

// ServeStream runs one subscriber stream until ctx ends or the transport
// fails: catch the subscriber up from epoch from (ring, WAL or full
// snapshot, whichever is cheapest and sufficient), then ship each new
// commit batch as it lands, with pings while idle. w must support
// http.Flusher for timely delivery (plain writers still work, at the
// mercy of downstream buffering).
func (p *Publisher) ServeStream(ctx context.Context, w http.ResponseWriter, from uint64) error {
	if from == 0 {
		from = 1
	}
	sub := p.register(from)
	defer p.unregister(sub)

	fw := newFrameWriter(&deadlineWriter{w: w, rc: http.NewResponseController(w)})
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if err := fw.writeFrame(Frame{Kind: KindHello, Epoch: p.store.PublishedEpoch()}, nil); err != nil {
		return err
	}
	flush()

	if err := p.catchUp(ctx, fw, sub, flush); err != nil {
		return err
	}
	// The first ping is the caught-up signal: the follower marks itself
	// synced when its applied epoch reaches a ping's epoch.
	if err := fw.writeFrame(Frame{Kind: KindPing, Epoch: p.store.PublishedEpoch()}, nil); err != nil {
		return err
	}
	flush()

	ticker := time.NewTicker(pingInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-sub.ch:
			if err := p.catchUp(ctx, fw, sub, flush); err != nil {
				return err
			}
		case <-ticker.C:
			if err := fw.writeFrame(Frame{Kind: KindPing, Epoch: p.store.PublishedEpoch()}, nil); err != nil {
				return err
			}
			flush()
		}
	}
}

// deadlineWriter arms a fresh write deadline before every write so a hung
// subscriber connection fails the stream within streamWriteTimeout (the
// periodic pings guarantee regular writes even when idle). Transports
// without deadline support (SetWriteDeadline returns ErrNotSupported,
// e.g. some test ResponseWriters) degrade to plain writes.
type deadlineWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (dw *deadlineWriter) Write(p []byte) (int, error) {
	_ = dw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	return dw.w.Write(p)
}

// catchUp ships batches until the subscriber's cursor passes the store's
// published epoch, choosing per round between the ring, a WAL scan and a
// full snapshot.
func (p *Publisher) catchUp(ctx context.Context, fw *frameWriter, sub *subscriber, flush func()) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		target := p.store.PublishedEpoch()
		if sub.next > target {
			return nil
		}
		if batches, ok := p.ringFrom(sub.next); ok {
			for _, b := range batches {
				if err := p.shipBatch(fw, sub, flush, b.Epoch, b.Horizon, b.Pages); err != nil {
					return err
				}
			}
			continue
		}
		if shipped, err := p.shipFromWAL(ctx, fw, sub, flush); err != nil {
			return err
		} else if shipped {
			continue
		}
		if err := p.sendSnapshot(ctx, fw, sub, flush); err != nil {
			return err
		}
	}
}

// shipFromWAL replays the primary's own WAL to the subscriber when the
// log still holds the subscriber's next epoch. Returns whether anything
// shipped; false falls through to a full snapshot.
func (p *Publisher) shipFromWAL(ctx context.Context, fw *frameWriter, sub *subscriber, flush func()) (bool, error) {
	first, last := p.store.WALEpochRange()
	if first == 0 || sub.next < first || sub.next > last {
		return false, nil
	}
	shipped := false
	// The retire horizon at scan time over-approximates the horizon each
	// scanned batch carried: a larger horizon only makes the follower
	// more conservative about applying over open snapshots.
	hz := p.store.ReclaimHorizon()
	err := p.store.ScanWALBatches(func(pages []storage.DirtyPage) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ep, _, ok := storage.BatchMeta(pages)
		if !ok || ep < sub.next {
			return nil
		}
		shipped = true
		return p.shipBatch(fw, sub, flush, ep, hz, pages)
	})
	if err != nil {
		return shipped, err
	}
	return shipped, nil
}

// shipBatch writes one commit batch frame and advances the cursor.
func (p *Publisher) shipBatch(fw *frameWriter, sub *subscriber, flush func(), epoch, horizon uint64, pages []storage.DirtyPage) error {
	if err := fw.writeFrame(Frame{Kind: KindBatch, Epoch: epoch, Horizon: horizon}, pages); err != nil {
		return err
	}
	flush()
	p.advance(sub, epoch+1)
	obs.Engine.Add(obs.CtrReplBatchesShipped, 1)
	obs.Engine.Add(obs.CtrReplBytesShipped, int64(len(pages))*(storage.PageSize+8))
	return nil
}

// sendSnapshot ships the whole page file pinned at one committed epoch:
// hello{snapshot}, the pages from 1 on in chunks, then snapend with the
// epoch and roots the pages realize. The snapshot pin keeps every page
// reachable at that epoch immutable while streaming; pages unreachable at
// the pinned epoch may carry newer bytes, which is harmless — the batches
// from the pinned epoch on rewrite them on the follower.
func (p *Publisher) sendSnapshot(ctx context.Context, fw *frameWriter, sub *subscriber, flush func()) error {
	sn := p.store.Snapshot()
	defer sn.Close()
	epoch := sn.Epoch()
	count := p.store.PageCount()
	var roots [storage.NumRoots]storage.PageID
	for i := range roots {
		roots[i] = sn.Root(i)
	}

	if err := fw.writeFrame(Frame{Kind: KindHello, Snapshot: true, Epoch: epoch, PageTotal: uint64(count) - 1}, nil); err != nil {
		return err
	}
	flush()

	chunk := make([]storage.DirtyPage, 0, snapChunkPages)
	ship := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := fw.writeFrame(Frame{Kind: KindPages}, chunk); err != nil {
			return err
		}
		flush()
		obs.Engine.Add(obs.CtrReplSnapshotPages, int64(len(chunk)))
		obs.Engine.Add(obs.CtrReplBytesShipped, int64(len(chunk))*(storage.PageSize+8))
		chunk = chunk[:0]
		return nil
	}
	for id := storage.PageID(1); id < count; id++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		img, err := p.store.ReadPage(id)
		if err != nil {
			return err
		}
		chunk = append(chunk, storage.DirtyPage{ID: id, Data: img})
		if len(chunk) == snapChunkPages {
			if err := ship(); err != nil {
				return err
			}
		}
	}
	if err := ship(); err != nil {
		return err
	}
	if err := fw.writeFrame(Frame{Kind: KindSnapEnd, Epoch: epoch, Roots: rootsToWire(roots)}, nil); err != nil {
		return err
	}
	flush()
	p.advance(sub, epoch+1)
	return nil
}
