package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
)

const (
	// horizonGrace bounds how long an apply waits for local snapshots
	// older than the shipped reclaim horizon to close. When the grace
	// expires, those snapshots are invalidated (their in-flight reads fail
	// with a retryable error) before the apply proceeds — never applied
	// over, which would let pinned readers silently observe rewritten
	// pages. Counted in repl_apply_conflicts / repl_snapshots_invalidated.
	horizonGrace = 250 * time.Millisecond
	// reconnect backoff bounds.
	backoffMin = 100 * time.Millisecond
	backoffMax = 3 * time.Second
)

// StatusResponse is the /v1/repl/status body, served by both roles.
// Degraded is set on a follower whose promote attempt failed after the
// apply loops stopped: nothing is replicating, and retrying POST
// /v1/repl/promote is the remediation.
type StatusResponse struct {
	Role     string        `json:"role"` // "primary" or "follower"
	Degraded bool          `json:"degraded,omitempty"`
	Shards   []ShardStatus `json:"shards"`
}

// ShardStatus is one shard's replication state. On a primary, Epoch is
// the published epoch and Subscribers counts connected streams; on a
// follower, Epoch is the last applied epoch and the remaining fields
// describe the stream from the primary.
type ShardStatus struct {
	Shard         int    `json:"shard"`
	Epoch         uint64 `json:"epoch"`
	Subscribers   int    `json:"subscribers,omitempty"`
	PrimaryEpoch  uint64 `json:"primary_epoch,omitempty"`
	LagEpochs     uint64 `json:"lag_epochs,omitempty"`
	Connected     bool   `json:"connected,omitempty"`
	Synced        bool   `json:"synced,omitempty"`
	LastContactMS int64  `json:"last_contact_ms,omitempty"`
	// LastError is the error that ended the shard's most recent broken
	// stream (connect failure, a non-200 from the primary, a failed apply)
	// and LastErrorMS its age; both clear once a later stream proves
	// healthy by applying a batch or answering a ping caught up.
	LastError   string `json:"last_error,omitempty"`
	LastErrorMS int64  `json:"last_error_ms,omitempty"`
}

// Follower replicates a primary's sharded store into a local directory.
// It opens every shard with storage.OpenReplica, streams batches from the
// primary's /v1/repl/stream endpoint (reconnecting with backoff from the
// last applied epoch) and applies them through ApplyReplicated, so each
// applied epoch is WAL-durable locally before the cursor moves past it.
//
// The follower owns the apply loops but not the stores' lifetimes: the
// serving layer that assembles repositories over Stores() is responsible
// for closing them.
type Follower struct {
	primary string
	hc      *http.Client
	stores  []*storage.Store
	shards  []*followerShard

	// allSynced is closed by the ping handler that finds every shard
	// synced; WaitSynced blocks on it.
	allSynced  chan struct{}
	syncedOnce sync.Once

	mu       sync.Mutex
	cancel   context.CancelFunc
	started  bool
	promoted bool
	wg       sync.WaitGroup
}

type followerShard struct {
	primaryEpoch atomic.Uint64
	connected    atomic.Bool
	synced       atomic.Bool
	lastContact  atomic.Int64                // unix nanos of the last frame received
	lastErr      atomic.Pointer[streamError] // nil while the stream is healthy
}

// streamError is what ended a shard's stream, and when.
type streamError struct {
	msg string
	at  int64 // unix nanos
}

// healthy clears the shard's last stream error: the current stream has
// applied a batch or found itself caught up.
func (sh *followerShard) healthy() {
	if sh.lastErr.Load() != nil {
		sh.lastErr.Store(nil)
	}
}

// OpenFollower prepares dir as a replica of the primary at baseURL: it
// probes the primary's /v1/repl/status for the shard count, lays down (or
// validates) the local shard manifest, and opens every shard store in
// replica mode, resuming from whatever epoch each local WAL recovers to.
// Call Start to begin streaming. hc may be nil for a default client.
func OpenFollower(dir, baseURL string, hc *http.Client) (*Follower, error) {
	if hc == nil {
		// No client-level timeout: stream requests are unbounded by
		// design and carry per-request contexts instead.
		hc = &http.Client{}
	}
	primary := strings.TrimRight(baseURL, "/")

	st, err := fetchStatus(hc, primary)
	if err != nil {
		return nil, fmt.Errorf("repl: probing primary: %w", err)
	}
	n := len(st.Shards)
	if n == 0 {
		return nil, fmt.Errorf("repl: primary %s reports no shards", primary)
	}

	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	man, err := shard.ReadManifest(dir)
	switch {
	case err == nil:
		if man.Shards != n {
			return nil, fmt.Errorf("repl: local manifest has %d shards, primary has %d", man.Shards, n)
		}
	case errors.Is(err, shard.ErrNoManifest):
		if err := shard.WriteManifest(dir, shard.NewManifest(n)); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	f := &Follower{primary: primary, hc: hc, allSynced: make(chan struct{})}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(shard.Dir(dir, i), 0o777); err != nil {
			f.closeStores()
			return nil, err
		}
		s, err := storage.OpenReplica(shard.PageFile(dir, i))
		if err != nil {
			f.closeStores()
			return nil, fmt.Errorf("repl: opening replica shard %d: %w", i, err)
		}
		f.stores = append(f.stores, s)
		f.shards = append(f.shards, &followerShard{})
	}
	return f, nil
}

func fetchStatus(hc *http.Client, base string) (*StatusResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/repl/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (f *Follower) closeStores() {
	for _, s := range f.stores {
		s.Close()
	}
	f.stores = nil
}

// Stores returns the per-shard replica stores, in shard order.
func (f *Follower) Stores() []*storage.Store { return f.stores }

// Start launches one streaming apply loop per shard. The loops stop when
// ctx ends or Stop/Promote is called.
func (f *Follower) Start(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	ctx, f.cancel = context.WithCancel(ctx)
	for i := range f.stores {
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.run(ctx, i)
		}(i)
	}
}

// Stop halts the apply loops and waits for them to exit. The stores stay
// open (and stay replicas).
func (f *Follower) Stop() {
	f.mu.Lock()
	cancel := f.cancel
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	f.wg.Wait()
}

// run is one shard's reconnect loop. Any stream error means reconnect from
// the applied epoch; the error is kept for Status, since "connected=false"
// alone does not say whether the primary is down, demoted or shipping
// something this store refuses to apply.
func (f *Follower) run(ctx context.Context, i int) {
	backoff := backoffMin
	for {
		started := time.Now()
		err := f.streamOnce(ctx, i)
		f.shards[i].connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		f.shards[i].lastErr.Store(&streamError{msg: err.Error(), at: time.Now().UnixNano()})
		obs.Engine.Add(obs.CtrReplReconnects, 1)
		// A stream that held for a while earns a fresh backoff.
		if time.Since(started) > 5*time.Second {
			backoff = backoffMin
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// streamOnce opens one stream from the shard's next needed epoch and
// applies frames until the stream breaks or ctx ends.
func (f *Follower) streamOnce(ctx context.Context, i int) error {
	st := f.stores[i]
	sh := f.shards[i]
	from := st.PublishedEpoch() + 1
	url := fmt.Sprintf("%s/v1/repl/stream?shard=%d&from_epoch=%d", f.primary, i, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: stream shard %d: %s: %s", i, resp.Status, strings.TrimSpace(string(body)))
	}
	sh.connected.Store(true)

	fr := newFrameReader(resp.Body)
	var snapPages []storage.DirtyPage
	inSnap := false
	for {
		frame, pages, err := fr.readFrame()
		if err != nil {
			return err
		}
		sh.lastContact.Store(time.Now().UnixNano())
		switch frame.Kind {
		case kindHello:
			sh.notePrimaryEpoch(frame.Epoch)
			if frame.Snapshot {
				inSnap = true
				snapPages = make([]storage.DirtyPage, 0, frame.PageTotal)
			}
		case kindPages:
			if !inSnap {
				return fmt.Errorf("repl: pages frame outside snapshot")
			}
			snapPages = append(snapPages, pages...)
		case kindSnapEnd:
			if !inSnap {
				return fmt.Errorf("repl: snapend frame outside snapshot")
			}
			inSnap = false
			all := snapPages
			snapPages = nil
			if _, roots, ok := storage.BatchMeta(all); !ok || roots != rootsFromWire(frame.Roots) {
				return fmt.Errorf("repl: snapshot at epoch %d does not carry its meta page", frame.Epoch)
			}
			// A snapshot replaces every page: wait for all local
			// snapshots older than its epoch.
			if err := f.waitHorizon(ctx, st, frame.Epoch); err != nil {
				return err
			}
			if err := st.ApplyReplicated(frame.Epoch, all); err != nil {
				return err
			}
			obs.Engine.Add(obs.CtrReplBatchesApplied, 1)
			obs.Engine.Add(obs.CtrReplPagesApplied, int64(len(all)))
			sh.notePrimaryEpoch(frame.Epoch)
			sh.healthy()
		case kindBatch:
			if frame.Epoch <= st.PublishedEpoch() {
				// Reconnect overlap: the batch is already applied.
				continue
			}
			if frame.Horizon > 0 {
				// Pages retired at epochs <= Horizon have been reused on
				// the primary; this batch may rewrite them.
				if err := f.waitHorizon(ctx, st, frame.Horizon+1); err != nil {
					return err
				}
			}
			if err := st.ApplyReplicated(frame.Epoch, pages); err != nil {
				return err
			}
			obs.Engine.Add(obs.CtrReplBatchesApplied, 1)
			obs.Engine.Add(obs.CtrReplPagesApplied, int64(len(pages)))
			sh.notePrimaryEpoch(frame.Epoch)
			sh.healthy()
		case kindPing:
			sh.notePrimaryEpoch(frame.Epoch)
			if st.PublishedEpoch() >= frame.Epoch {
				sh.healthy()
				if !sh.synced.Swap(true) && f.synced() {
					f.syncedOnce.Do(func() { close(f.allSynced) })
				}
			}
		default:
			return fmt.Errorf("repl: unknown frame kind %q", frame.Kind)
		}
	}
}

func (sh *followerShard) notePrimaryEpoch(e uint64) {
	for {
		cur := sh.primaryEpoch.Load()
		if e <= cur || sh.primaryEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// waitHorizon blocks (up to horizonGrace) while any open local snapshot
// pins an epoch below limit, and returns the moment the last of them
// closes — it sleeps on the store's change signal, it does not poll. If
// the grace expires with such snapshots still open, they are invalidated —
// their subsequent reads fail with storage.ErrSnapshotInvalidated (a
// retryable error the serving layer maps to a failover status) — so the
// apply that follows can never be silently observed by a pinned reader as
// torn pages. A non-nil error (ctx ended, store closed) means the apply
// must not proceed. The time spent here is recorded in
// obs.ReplHorizonWait, once per call.
func (f *Follower) waitHorizon(ctx context.Context, st *storage.Store, limit uint64) error {
	start := time.Now()
	wctx, cancel := context.WithTimeout(ctx, horizonGrace)
	err := st.AwaitSnapshotsFrom(wctx, limit)
	cancel()
	obs.ReplHorizonWait.Observe(time.Since(start))
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	case !errors.Is(err, context.DeadlineExceeded):
		return err
	}
	obs.Engine.Add(obs.CtrReplApplyConflicts, 1)
	obs.Engine.Add(obs.CtrReplSnapshotsInvalidated, 1)
	// Must happen before ApplyReplicated touches the pool: readers check
	// the mark after each page read, so ordering the store before any
	// frame mutation closes the race (see InvalidateSnapshotsBelow).
	st.InvalidateSnapshotsBelow(limit)
	return nil
}

// synced reports whether every shard has caught up with the primary at
// least once since its stream connected.
func (f *Follower) synced() bool {
	for _, sh := range f.shards {
		if !sh.synced.Load() {
			return false
		}
	}
	return true
}

// WaitSynced blocks until every shard is synced or ctx ends.
func (f *Follower) WaitSynced(ctx context.Context) error {
	select {
	case <-f.allSynced:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Promote stops the apply loops and flips every shard store to a
// writable primary; the databases over them take writes from then on, and
// a server over them opens its write path. Replication of already-applied
// epochs is preserved — nothing the primary WAL-fsynced and shipped is
// lost. A store
// whose list of unreachable pages does not read stays a follower, and the
// error says which; promoting again retries it.
func (f *Follower) Promote() error {
	f.mu.Lock()
	f.promoted = true
	f.mu.Unlock()
	f.Stop()
	var errs []error
	for i, s := range f.stores {
		if err := s.Promote(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// isPromoted reports whether Promote has run.
func (f *Follower) isPromoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// Status reports per-shard replication state for /v1/repl/status and
// /v1/stats on a follower.
func (f *Follower) Status() StatusResponse {
	out := StatusResponse{Role: "follower"}
	if f.isPromoted() {
		out.Role = "primary"
	}
	now := time.Now().UnixNano()
	for i, s := range f.stores {
		sh := f.shards[i]
		applied := s.PublishedEpoch()
		pe := sh.primaryEpoch.Load()
		var lag uint64
		if pe > applied {
			lag = pe - applied
		}
		ss := ShardStatus{
			Shard:        i,
			Epoch:        applied,
			PrimaryEpoch: pe,
			LagEpochs:    lag,
			Connected:    sh.connected.Load(),
			Synced:       sh.synced.Load(),
		}
		if lc := sh.lastContact.Load(); lc != 0 {
			ss.LastContactMS = (now - lc) / int64(time.Millisecond)
		}
		if le := sh.lastErr.Load(); le != nil {
			ss.LastError = le.msg
			ss.LastErrorMS = (now - le.at) / int64(time.Millisecond)
		}
		out.Shards = append(out.Shards, ss)
	}
	return out
}
