// Replication endpoints and read-your-writes plumbing. A crimsond
// process plays one of two roles: a primary serves the full API plus
// the WAL-shipping stream (`GET /v1/repl/stream`), a follower
// (Backend.Follower set) serves reads at its last applied epoch,
// rejects writes with 403, and can be flipped into a primary with
// `POST /v1/repl/promote`. Both roles answer `GET /v1/repl/status`.
//
// Every response carries an `X-Crimson-Epoch` header: the per-shard
// published-epoch vector (comma separated, one entry per shard), the
// shard epoch a commit published at on a primary, the last applied
// epoch on a follower. A read request may carry `X-Crimson-Min-Epoch`
// (same format): the server then waits — bounded by replWaitMax — until
// every shard has reached the requested epoch before pinning the
// snapshot, giving a client read-your-writes on a lagging replica; if the
// replica does not catch up in time the request fails with 409 and the
// client is expected to fail over to the primary. The wait does not poll:
// the request sleeps on the shard store's epoch-change signal
// (storage.Store.AwaitEpoch) and the apply that publishes the epoch wakes
// it, so a fenced read costs the apply lag and nothing on top. The time
// spent is attributed — a fence_wait span on traced requests, the
// crimsond_repl_fence_wait_seconds histogram, the repl_fence_* engine
// counters.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
)

// replWaitMax bounds how long a read blocks on X-Crimson-Min-Epoch before
// giving up with 409 (a tighter request deadline wins).
const replWaitMax = 2 * time.Second

// epochVector reports each shard's published epoch: the last committed
// epoch on a primary, the last replicated-applied epoch on a follower.
func (s *Server) epochVector() []uint64 {
	eps := make([]uint64, len(s.be.DBs))
	for i, db := range s.be.DBs {
		eps[i] = db.Store().PublishedEpoch()
	}
	return eps
}

func formatEpochVector(eps []uint64) string {
	var sb strings.Builder
	for i, e := range eps {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(e, 10))
	}
	return sb.String()
}

func parseEpochVector(raw string) ([]uint64, error) {
	parts := strings.Split(raw, ",")
	eps := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad epoch %q: %w", p, err)
		}
		eps[i] = v
	}
	return eps, nil
}

// setEpochHeader stamps the response with the current epoch vector. It
// must run before the status line is written.
func (s *Server) setEpochHeader(w http.ResponseWriter) {
	w.Header().Set("X-Crimson-Epoch", formatEpochVector(s.epochVector()))
}

// awaitMinEpoch implements the X-Crimson-Min-Epoch wait. The vector is
// compared pointwise — shard epochs advance independently, so a sum or a
// max would accept states where one shard still lags the client's last
// write. A single value is accepted as shorthand for "every shard at
// least this". Returns nil when the store has caught up, a 409 when the
// wait times out, a 400 on a malformed header.
func (s *Server) awaitMinEpoch(r *http.Request) error {
	raw := r.Header.Get("X-Crimson-Min-Epoch")
	if raw == "" {
		return nil
	}
	want, err := parseEpochVector(raw)
	if err != nil {
		return badRequest("bad X-Crimson-Min-Epoch: %v", err)
	}
	if len(want) == 1 && len(s.be.DBs) > 1 {
		v := want[0]
		want = make([]uint64, len(s.be.DBs))
		for i := range want {
			want[i] = v
		}
	}
	if len(want) != len(s.be.DBs) {
		return badRequest("X-Crimson-Min-Epoch has %d entries, server has %d shards", len(want), len(s.be.DBs))
	}
	behind := false
	for i, db := range s.be.DBs {
		if db.Store().PublishedEpoch() < want[i] {
			behind = true
			break
		}
	}
	if !behind {
		return nil
	}
	// Shard epochs only grow, so waiting shard by shard under one deadline
	// is the pointwise test: a shard found caught up stays caught up.
	obs.Engine.Add(obs.CtrReplFenceWaits, 1)
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), replWaitMax)
	defer cancel()
	for i, db := range s.be.DBs {
		if err = db.Store().AwaitEpoch(ctx, want[i]); err != nil {
			break
		}
	}
	d := time.Since(start)
	obs.ReplFenceWait.Observe(d)
	obs.SpanFrom(r.Context()).AddTimed("fence_wait", d)
	switch {
	case err == nil:
		return nil
	case r.Context().Err() != nil:
		return &httpErr{status: http.StatusConflict,
			msg: "replica has not reached the requested epoch (request cancelled)"}
	case errors.Is(err, context.DeadlineExceeded):
		obs.Engine.Add(obs.CtrReplFenceTimeouts, 1)
		return &httpErr{status: http.StatusConflict, msg: fmt.Sprintf(
			"replica lags the requested epoch (have %s, want %s); retry on the primary",
			formatEpochVector(s.epochVector()), formatEpochVector(want))}
	}
	return err
}

// replStatus builds the role + per-shard replication view served by
// /v1/repl/status and embedded in /v1/stats and /metrics.
func (s *Server) replStatus() repl.StatusResponse {
	if fl := s.be.Follower; fl != nil && s.readOnly.Load() {
		st := fl.Status()
		st.Degraded = s.promoteDegraded.Load()
		for i := range st.Shards {
			if i < len(s.pubs) {
				st.Shards[i].Subscribers = s.pubs[i].Subscribers()
			}
		}
		return st
	}
	st := repl.StatusResponse{Role: "primary", Shards: make([]repl.ShardStatus, len(s.pubs))}
	for i, p := range s.pubs {
		ps := p.Status()
		st.Shards[i] = repl.ShardStatus{Shard: i, Epoch: ps.Epoch, Subscribers: ps.Subscribers}
	}
	return st
}

func (s *Server) handleReplStatus(*req) (any, error) { return s.replStatus(), nil }

// handleReplStream serves one shard's replication stream: catch-up
// (ring, WAL scan or full snapshot) followed by live batches as the
// group committer fsyncs them. The response streams until the client
// disconnects or the server shuts down.
func (s *Server) handleReplStream(q *req) (any, error) {
	if s.readOnly.Load() {
		return nil, &httpErr{status: http.StatusConflict,
			msg: "follower cannot serve the replication stream; connect to the primary"}
	}
	si, err := queryInt(q.Request, "shard", 0)
	if err != nil {
		return nil, err
	}
	if si < 0 || si >= len(s.pubs) {
		return nil, badRequest("shard %d out of range (server has %d)", si, len(s.pubs))
	}
	from := uint64(0)
	if raw := q.URL.Query().Get("from_epoch"); raw != "" {
		if from, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return nil, badRequest("bad from_epoch %q: %v", raw, err)
		}
	}
	// End the stream either when the subscriber goes away (request
	// context) or when this server shuts down (streamCtx) — Shutdown
	// drains active requests, and a stream never ends on its own.
	ctx, cancel := context.WithCancel(q.Context())
	defer cancel()
	go func() {
		select {
		case <-s.streamCtx.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := s.pubs[si].ServeStream(ctx, q.w, from); err != nil && ctx.Err() == nil {
		s.logf("crimsond: repl stream shard %d: %v", si, err)
	}
	return streamed{}, nil
}

// handleReplPromote flips a follower into a writable primary.
func (s *Server) handleReplPromote(*req) (any, error) {
	if err := s.promote(); err != nil {
		return nil, err
	}
	return s.replStatus(), nil
}

// promote completes a failover: stop the apply loops, flip the stores
// writable, re-resolve every repository's writer handles (creating tables
// a young replica never saw), sweep pages the snapshot catch-up leaked
// onto no free list, commit, and open the write path. Idempotent — a
// second call returns 409. The writer mutexes are all held across the
// flip so the first real write starts against fully promoted state.
func (s *Server) promote() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	fl := s.be.Follower
	if fl == nil || !s.readOnly.Load() {
		return &httpErr{status: http.StatusConflict, msg: "already primary"}
	}
	for i := range s.writeMus {
		s.writeMus[i].Lock()
		defer s.writeMus[i].Unlock()
	}
	fl.Promote()
	// Everything past this point runs with the stores already writable
	// and the apply loops stopped. A failure here leaves the server
	// half-promoted: still read-only, nothing replicating. Flag the
	// state (degraded in /v1/repl/status) and tell the operator that
	// retrying promote — every step below is idempotent — completes the
	// failover.
	if err := s.finishPromote(); err != nil {
		s.promoteDegraded.Store(true)
		s.logf("crimsond: promote failed after stores flipped writable; "+
			"server is degraded (read-only, not replicating) until POST /v1/repl/promote is retried: %v", err)
		return fmt.Errorf("%w (stores are already writable and the apply loops are stopped; retry promote to complete the failover)", err)
	}
	s.promoteDegraded.Store(false)
	s.readOnly.Store(false)
	s.logf("crimsond: promoted to primary (epochs %s)", formatEpochVector(s.epochVector()))
	return nil
}

// finishPromote runs the post-flip promotion steps: re-resolve every
// repository's writer handles, sweep catch-up leaks, commit, and drop the
// read-only epoch-keyed caches. Idempotent, so a failed promote can be
// retried end to end.
func (s *Server) finishPromote() error {
	for _, db := range s.be.DBs {
		db.Reload()
	}
	if err := s.be.Trees.Reload(); err != nil {
		return fmt.Errorf("promote: reloading tree repository: %w", err)
	}
	if err := s.be.Species.Reload(); err != nil {
		return fmt.Errorf("promote: reloading species repository: %w", err)
	}
	if err := s.be.Queries.Reload(); err != nil {
		return fmt.Errorf("promote: reloading query repository: %w", err)
	}
	for i, db := range s.be.DBs {
		n, err := db.Sweep()
		if err != nil {
			return fmt.Errorf("promote: sweeping shard %d: %w", i, err)
		}
		if n > 0 {
			s.logf("crimsond: promote: reclaimed %d leaked pages on shard %d", n, i)
		}
	}
	for i, db := range s.be.DBs {
		if err := db.Commit(); err != nil {
			return fmt.Errorf("promote: committing shard %d: %w", i, err)
		}
	}
	// Old epoch-keyed state (handles, versions, cached results) was
	// accumulated read-only; drop it wholesale before writes can move
	// the epochs.
	s.handleMu.Lock()
	s.handles = make(map[string]epochHandle)
	s.vers = make(map[string]uint64)
	s.handleMu.Unlock()
	s.cache.purge()
	return nil
}
