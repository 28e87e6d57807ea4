// Replica-read support: endpoint selection, epoch tracking and the
// replication control endpoints. A client built with WithReplicas
// spreads data reads (GET under /v1/trees and /v1/history) round-robin
// across the replica endpoints and falls back to the primary when a
// replica is unreachable, overloaded, or lagging a requested epoch.
// Consistency is epoch-vector based: every crimsond response carries
// X-Crimson-Epoch (one published epoch per shard), the client keeps the
// pointwise maximum it has seen, and WithReadYourWrites replays that
// vector as X-Crimson-Min-Epoch on replica reads — the replica then
// waits briefly for its apply loop to catch up, or answers 409 and the
// client retries on the primary.
package client

import (
	"context"
	"io"
	"net/http"
	"strings"

	"repro/internal/repl"
)

// Replication wire types, re-exported so callers need only this package.
type (
	// ReplStatus is a server's replication role and per-shard state.
	ReplStatus = repl.StatusResponse
	// ReplShardStatus is one shard's replication state within ReplStatus.
	ReplShardStatus = repl.ShardStatus
)

// WithReplicas configures read replica endpoints (base URLs like the
// primary's). Data reads round-robin across them and fail over to the
// primary; writes and server-local endpoints (/v1/stats, /metrics,
// /v1/repl/*) always target the primary.
func WithReplicas(urls ...string) Option {
	return func(c *Client) {
		for _, u := range urls {
			if u = strings.TrimRight(u, "/"); u != "" {
				c.replicas = append(c.replicas, u)
			}
		}
	}
}

// WithReadYourWrites makes replica reads carry the highest epoch vector
// this client has observed (its own writes included) as
// X-Crimson-Min-Epoch, so a read after a write never sees a state older
// than that write even on a lagging replica — the replica waits for its
// apply loop or the client fails over to the primary.
func WithReadYourWrites() Option {
	return func(c *Client) { c.ryw = true }
}

// minEpochCtxKey carries a per-request epoch floor set by MinEpochContext.
type minEpochCtxKey struct{}

// MinEpochContext returns a context that pins a minimum epoch vector for
// requests issued under it: the server (replica or primary) answers only
// once every shard has reached the given epoch. Overrides the automatic
// WithReadYourWrites vector for that request.
func MinEpochContext(ctx context.Context, epochs []uint64) context.Context {
	return context.WithValue(ctx, minEpochCtxKey{}, append([]uint64(nil), epochs...))
}

// endpoints returns the base URLs to try for one request, in order. Only
// replayable data reads are eligible for replicas: GET with no body
// under the tree and history APIs. Everything else — writes, POST-bodied
// queries (match, bench) whose body cannot be re-sent, and server-local
// endpoints like /v1/stats — goes straight to the primary. The primary
// is always the last candidate, so failover ends somewhere that can
// answer authoritatively.
func (c *Client) endpoints(method, path string, body io.Reader) []string {
	if method != http.MethodGet || body != nil || len(c.replicas) == 0 ||
		!(strings.HasPrefix(path, "/v1/trees") || strings.HasPrefix(path, "/v1/history")) {
		return []string{c.base}
	}
	i := int(c.rr.Add(1)-1) % len(c.replicas)
	return []string{c.replicas[i], c.base}
}

// minEpochFor resolves the X-Crimson-Min-Epoch header value for one
// attempt: an explicit MinEpochContext vector wins and applies to any
// endpoint; otherwise WithReadYourWrites applies the tracked vector to
// replica attempts only (the primary is trivially current).
func (c *Client) minEpochFor(ctx context.Context, base string) string {
	if v, ok := ctx.Value(minEpochCtxKey{}).([]uint64); ok && len(v) > 0 {
		return repl.FormatEpochs(v)
	}
	if !c.ryw || base == c.base {
		return ""
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if len(c.lastEpochs) == 0 {
		return ""
	}
	return repl.FormatEpochs(c.lastEpochs)
}

// noteEpochs folds a response's X-Crimson-Epoch vector into the
// client's pointwise maximum. Responses from lagging replicas carry
// lower epochs and never regress the tracked vector.
func (c *Client) noteEpochs(resp *http.Response) {
	raw := resp.Header.Get("X-Crimson-Epoch")
	if raw == "" {
		return
	}
	eps, err := repl.ParseEpochs(raw)
	if err != nil {
		return
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if len(c.lastEpochs) != len(eps) {
		c.lastEpochs = make([]uint64, len(eps))
	}
	for i, v := range eps {
		if v > c.lastEpochs[i] {
			c.lastEpochs[i] = v
		}
	}
}

// LastEpochs reports the highest per-shard epoch vector this client has
// seen across all responses (nil before the first response). Useful as
// an explicit MinEpochContext bound handed to another client.
func (c *Client) LastEpochs() []uint64 {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return append([]uint64(nil), c.lastEpochs...)
}

// ReplStatusCtx fetches the primary endpoint's replication status: its
// role and, per shard, the published epoch and connected subscribers (on
// a follower endpoint, additionally lag and stream liveness).
func (c *Client) ReplStatusCtx(ctx context.Context) (ReplStatus, error) {
	var st ReplStatus
	err := c.get(ctx, "/v1/repl/status", nil, &st)
	return st, err
}

// ReplicaStatusCtx fetches one configured replica's replication status
// (index into the WithReplicas list).
func (c *Client) ReplicaStatusCtx(ctx context.Context, i int) (ReplStatus, error) {
	var st ReplStatus
	if i < 0 || i >= len(c.replicas) {
		return st, &APIError{Status: http.StatusBadRequest, Message: "replica index out of range"}
	}
	err := c.doOnce(ctx, c.replicas[i], http.MethodGet, "/v1/repl/status", nil, nil, "", &st)
	return st, err
}

// PromoteCtx promotes the server at this client's primary endpoint from
// follower to writable primary and returns its post-promote status.
// Point the client (or a dedicated one) at the follower to promote it.
func (c *Client) PromoteCtx(ctx context.Context) (ReplStatus, error) {
	var st ReplStatus
	err := c.do(ctx, http.MethodPost, "/v1/repl/promote", nil, nil, "", &st)
	return st, err
}

// PromoteReplicaCtx promotes one configured replica (index into the
// WithReplicas list) and returns its post-promote status.
func (c *Client) PromoteReplicaCtx(ctx context.Context, i int) (ReplStatus, error) {
	var st ReplStatus
	if i < 0 || i >= len(c.replicas) {
		return st, &APIError{Status: http.StatusBadRequest, Message: "replica index out of range"}
	}
	err := c.doOnce(ctx, c.replicas[i], http.MethodPost, "/v1/repl/promote", nil, nil, "", &st)
	return st, err
}
