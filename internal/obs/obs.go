// Package obs is Crimson's zero-dependency observability substrate:
// engine counters, request spans and latency histograms shared by every
// tier from the HTTP handlers down to page I/O.
//
// Three pieces, designed to cost nearly nothing when tracing is off:
//
//   - Counters: a fixed, indexed set of atomic engine counters (B+tree
//     descents, cells decoded, rows scanned, buffer-pool hits/misses,
//     pages read/written, COW page allocations, WAL bytes/syncs). The
//     process-global Engine instance is always incremented by the storage
//     hooks — that is the entire "disabled" cost — while a second,
//     per-request Counters travels in the context only when a span is
//     active. All Counters methods are nil-safe, so hook sites never
//     branch on whether tracing is on.
//
//   - Span: a node of a per-request trace tree carried via
//     context.Context. StartSpan on a context without a span returns a
//     nil span (the fast path); every Span method tolerates a nil
//     receiver. Spans are concurrency-safe: parallel stages of one
//     request may start children and bump counters from many goroutines.
//
//   - Histogram: a fixed log-bucketed, lock-free latency histogram
//     (powers of two in microseconds) with Prometheus-style cumulative
//     buckets and quantile estimation for p50/p95/p99 reporting.
package obs

import "sync/atomic"

// Counter indexes one engine counter within a Counters set.
type Counter int

// The engine counters, ordered hot-to-cold; counterDefs names and
// describes each one. NumCounters must stay last.
const (
	CtrBTreeDescents Counter = iota
	CtrCellsDecoded
	CtrRowsScanned
	CtrPoolHits
	CtrPoolMisses
	CtrPagesRead
	CtrPagesWritten
	CtrCOWPages
	CtrWALBytes
	CtrWALSyncs
	CtrReadCacheHits
	CtrReadCacheMisses
	CtrReadCacheEvicts
	CtrCommits
	CtrGroupBatches
	CtrGroupFsyncsSaved
	CtrCheckpointRuns
	CtrCheckpointPages
	CtrCheckpointBytes
	CtrWALHighwaterBytes
	CtrReplBatchesShipped
	CtrReplBytesShipped
	CtrReplSnapshotPages
	CtrReplBatchesApplied
	CtrReplPagesApplied
	CtrReplApplyConflicts
	CtrReplReconnects
	CtrReplSnapshotsInvalidated
	CtrWALRetainDrops
	CtrReplFenceWaits
	CtrReplFenceTimeouts
	CtrReplFenceWakeups

	NumCounters
)

// counterDefs is the one description of every engine counter: its
// snake_case wire name (the /v1/stats engine key, and the <name> of
// crimsond_engine_<name>_total) and the HELP text /metrics gives it.
// Adding a counter is a constant above and a row here.
var counterDefs = [NumCounters]struct{ name, help string }{
	CtrBTreeDescents:            {"btree_descents", "B+tree root-to-leaf descents."},
	CtrCellsDecoded:             {"cells_decoded", "B+tree cells decoded while reading nodes."},
	CtrRowsScanned:              {"rows_scanned", "Rows produced by range scans."},
	CtrPoolHits:                 {"pool_hits", "Buffer-pool page read hits."},
	CtrPoolMisses:               {"pool_misses", "Buffer-pool page read misses."},
	CtrPagesRead:                {"pages_read", "Pages read from disk."},
	CtrPagesWritten:             {"pages_written", "Pages written at commit."},
	CtrCOWPages:                 {"cow_pages", "Pages copied by copy-on-write before modification."},
	CtrWALBytes:                 {"wal_bytes", "Bytes appended to the write-ahead log."},
	CtrWALSyncs:                 {"wal_syncs", "Write-ahead log fsyncs."},
	CtrReadCacheHits:            {"read_cache_hits", "Decoded-node read cache hits."},
	CtrReadCacheMisses:          {"read_cache_misses", "Decoded-node read cache misses (cacheable interior nodes decoded)."},
	CtrReadCacheEvicts:          {"read_cache_evicts", "Decoded-node read cache evictions under the byte budget."},
	CtrCommits:                  {"commits", "Storage-engine commits made durable."},
	CtrGroupBatches:             {"group_commit_batches", "WAL batches flushed by group commit (each is one fsync)."},
	CtrGroupFsyncsSaved:         {"group_fsyncs_saved", "Fsyncs avoided by coalescing commits into group-commit batches."},
	CtrCheckpointRuns:           {"checkpoint_runs", "Background checkpoint passes completed."},
	CtrCheckpointPages:          {"checkpoint_pages", "Pages written back to the page file by checkpoints."},
	CtrCheckpointBytes:          {"checkpoint_bytes", "Bytes written back to the page file by checkpoints."},
	CtrWALHighwaterBytes:        {"wal_highwater_bytes", "Largest write-ahead log size observed (high-water mark)."},
	CtrReplBatchesShipped:       {"repl_batches_shipped", "WAL commit batches shipped to replication subscribers."},
	CtrReplBytesShipped:         {"repl_bytes_shipped", "Bytes shipped on replication streams (page payloads)."},
	CtrReplSnapshotPages:        {"repl_snapshot_pages", "Pages shipped in full-snapshot replica catch-ups."},
	CtrReplBatchesApplied:       {"repl_batches_applied", "Replicated batches applied by this follower."},
	CtrReplPagesApplied:         {"repl_pages_applied", "Pages applied from replicated batches and snapshots."},
	CtrReplApplyConflicts:       {"repl_apply_conflicts", "Replica applies that waited out the snapshot grace period and invalidated the still-open snapshots."},
	CtrReplReconnects:           {"repl_reconnects", "Replication stream reconnect attempts."},
	CtrReplSnapshotsInvalidated: {"repl_snapshots_invalidated", "Replica applies that invalidated still-open local snapshots (their reads fail with a retryable error)."},
	CtrWALRetainDrops:           {"wal_retain_drops", "WAL truncations that overrode a replication retain floor because the log outgrew the retain cap."},
	CtrReplFenceWaits:           {"repl_fence_waits", "Reads that blocked on their X-Crimson-Min-Epoch fence."},
	CtrReplFenceTimeouts:        {"repl_fence_timeouts", "Fenced reads that gave up with 409 because the store did not reach the epoch in time."},
	CtrReplFenceWakeups:         {"repl_fence_wakeups", "Wake-ups of epoch waiters by the store's change signal (one per event, none while idle)."},
}

// Name returns the counter's snake_case wire name.
func (c Counter) Name() string { return counterDefs[c].name }

// Help returns the counter's one-line description (its /metrics HELP).
func (c Counter) Help() string { return counterDefs[c].help }

// Counters is a fixed set of atomic engine counters. The zero value is
// ready to use, and every method is nil-safe so instrumentation hooks can
// pass a possibly-nil per-request set without branching.
type Counters struct {
	v [NumCounters]atomic.Int64
}

// Engine is the process-global counter set: the storage hooks always
// increment it, so /metrics exposes engine totals even with tracing off.
// It aggregates across every open store in the process.
var Engine = &Counters{}

// GroupBatch is the process-global group-commit batch-size histogram.
// It reuses the log2 latency histogram with "microseconds" standing in
// for "commits per flushed batch": a flush of n commits is recorded as
// Observe(n µs), so bucket i counts batches of ≤ 2^i commits.
var GroupBatch = &Histogram{}

// The replication wait histograms, process-global like the counters of
// the reads and applies they time. ReplFenceWait has one observation per
// read that blocked on its X-Crimson-Min-Epoch fence (reads that arrive
// with the epoch already published are not observed); ReplHorizonWait one
// per replicated apply that carried a reclaim horizon, the time it spent
// waiting for older local snapshots to close (zero for most).
var (
	ReplFenceWait   = &Histogram{}
	ReplHorizonWait = &Histogram{}
)

// Add increments counter c by n. A nil receiver is a no-op.
func (cs *Counters) Add(c Counter, n int64) {
	if cs == nil {
		return
	}
	cs.v[c].Add(n)
}

// Get returns the current value of counter c (0 on a nil receiver).
func (cs *Counters) Get(c Counter) int64 {
	if cs == nil {
		return 0
	}
	return cs.v[c].Load()
}

// Max raises counter c to n if n is larger (a monotonic high-water
// mark). A nil receiver is a no-op.
func (cs *Counters) Max(c Counter, n int64) {
	if cs == nil {
		return
	}
	for {
		cur := cs.v[c].Load()
		if n <= cur || cs.v[c].CompareAndSwap(cur, n) {
			return
		}
	}
}

// AddAll adds every counter of other into cs. Nil receivers and nil
// arguments are no-ops.
func (cs *Counters) AddAll(other *Counters) {
	if cs == nil || other == nil {
		return
	}
	for i := Counter(0); i < NumCounters; i++ {
		if n := other.v[i].Load(); n != 0 {
			cs.v[i].Add(n)
		}
	}
}

// Snapshot returns the nonzero counters by name. Nil receivers return an
// empty map.
func (cs *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if cs == nil {
		return out
	}
	for i := Counter(0); i < NumCounters; i++ {
		if n := cs.v[i].Load(); n != 0 {
			out[counterDefs[i].name] = n
		}
	}
	return out
}
