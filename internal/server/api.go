// Wire types of the crimsond HTTP/JSON API, shared by the server handlers
// and the typed Go client (package repro/client). Every response body is
// JSON except tree export (text/plain Newick) and /metrics (plain text).
package server

import (
	"time"

	"repro/internal/repl"
)

// TreeInfo is the JSON form of a stored tree's catalog row.
type TreeInfo struct {
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Leaves int    `json:"leaves"`
	F      int    `json:"f"`
	Layers int    `json:"layers"`
	Depth  int    `json:"depth"`
}

// LoadResponse acknowledges a tree load.
type LoadResponse struct {
	Tree      TreeInfo `json:"tree"`
	Sequences int      `json:"sequences,omitempty"` // NEXUS CHARACTERS rows stored
}

// TreesResponse lists the repository's trees. When the request was
// paginated (limit and/or cursor set) and more trees remain, NextCursor
// carries the opaque cursor for the next page; a missing NextCursor means
// the listing is complete.
type TreesResponse struct {
	Trees      []TreeInfo `json:"trees"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

// Node is the JSON form of one stored tree node row.
type Node struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name,omitempty"`
	Length float64 `json:"length"`
	Depth  int     `json:"depth"`
	Dist   float64 `json:"dist"` // evolutionary time from the root
	Leaf   bool    `json:"leaf"`
	Size   int     `json:"size"` // nodes in the subtree rooted here
}

// LCAResponse answers a least-common-ancestor query.
type LCAResponse struct {
	Node   Node `json:"node"`
	Cached bool `json:"cached"` // served from the result cache
}

// ProjectResponse answers a tree projection query.
type ProjectResponse struct {
	Newick string `json:"newick"`
	Leaves int    `json:"leaves"`
	Cached bool   `json:"cached"`
}

// SampleResponse answers a species sampling query.
type SampleResponse struct {
	Species []string `json:"species"`
}

// CladeResponse answers a minimal-spanning-clade query.
type CladeResponse struct {
	Root    Node     `json:"root"`
	Nodes   int      `json:"nodes"`
	Leaves  int      `json:"leaves"`
	Species []string `json:"species"` // leaf names, sorted
	Cached  bool     `json:"cached"`
}

// MatchResponse answers a tree pattern match (§2.2): the stored tree is
// projected over the pattern's leaf set and compared topologically.
type MatchResponse struct {
	Exact     bool    `json:"exact"`
	RF        int     `json:"rf"`
	NormRF    float64 `json:"norm_rf"`
	Projected string  `json:"projected"` // Newick of the projection
	Cached    bool    `json:"cached"`
}

// SpeciesRecord is one species-data record. Data is base64 in JSON.
type SpeciesRecord struct {
	Tree    string `json:"tree"`
	Species string `json:"species"`
	Kind    string `json:"kind"`
	Data    []byte `json:"data,omitempty"`
}

// SpeciesListResponse lists the records stored for one species.
type SpeciesListResponse struct {
	Records []SpeciesRecord `json:"records"`
}

// HistoryEntry is one recorded query.
type HistoryEntry struct {
	ID      int64     `json:"id"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Args    string    `json:"args"` // JSON-encoded arguments
	Summary string    `json:"summary"`
}

// HistoryResponse lists query-history entries, newest first. NextCursor
// carries the opaque cursor for the next (older) page when more entries
// remain; absent once the history is exhausted.
//
// Ids, and so this order, follow the order entries were appended, not the
// order their requests ran: a write appends its entry in its own
// transaction, while a read's entry is appended later by the async
// recorder, so a read can take a higher id than a write that ran after it.
type HistoryResponse struct {
	Entries    []HistoryEntry `json:"entries"`
	NextCursor string         `json:"next_cursor,omitempty"`
}

// BenchRequest configures a server-side benchmark run over a stored gold
// tree. Zero values take the Benchmark Manager defaults.
type BenchRequest struct {
	Sizes      []int    `json:"sizes"`
	Replicates int      `json:"replicates"`
	Algorithms []string `json:"algorithms"` // NJ, UPGMA, MP
	SeqLength  int      `json:"seq_length"`
	Time       *float64 `json:"time,omitempty"` // nil = uniform sampling
	Seed       int64    `json:"seed"`
	Parallel   int      `json:"parallel"`
}

// StatsSnapshot is the /v1/stats body: one consistent view of the
// server's counters, including the storage engine's MVCC state (epoch,
// open snapshots, pages awaiting reclamation).
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	InFlightReads int64   `json:"in_flight_reads"`
	// AbortedReads counts read requests that ended because the client's
	// context was cancelled — a disconnect or deadline — rather than
	// completing. Each one released its snapshot pins on abort.
	AbortedReads int64 `json:"aborted_reads"`
	// Panics counts requests whose handler panicked; each was answered 500
	// (or cut, if its body had begun) and its stack logged.
	Panics       int64            `json:"panics"`
	CacheHits    int64            `json:"cache_hits"`
	CacheMisses  int64            `json:"cache_misses"`
	CacheEntries int              `json:"cache_entries"`
	PerOp        map[string]int64 `json:"per_op"`

	// OpLatencies maps each op with at least one completed request (plus
	// "commit" for engine commits) to its sample count and latency
	// percentiles, estimated from the same log-bucketed histograms
	// /metrics exposes as crimsond_op_duration_seconds.
	OpLatencies map[string]OpLatency `json:"op_latencies,omitempty"`
	// Engine exposes the process-global storage-engine counters (B+tree
	// descents, cells decoded, rows scanned, pool hits/misses, pages
	// read/written, COW pages, WAL bytes/syncs); zero counters are
	// omitted.
	Engine map[string]int64 `json:"engine,omitempty"`
	// Goroutines and HeapAllocBytes are runtime gauges sampled at
	// snapshot time.
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`

	// MVCC state of the storage engines under the repository, aggregated
	// across shards: Epoch is the sum of per-shard epochs (it advances on
	// any shard's commit); the other two are totals.
	Epoch               uint64 `json:"epoch"`
	OpenSnapshots       int    `json:"open_snapshots"`
	PendingReclaimPages int    `json:"pending_reclaim_pages"`
	// Shards breaks the MVCC state down per shard (one entry even on
	// single-shard repositories).
	Shards []ShardMVCC `json:"shards"`

	// Durability pipeline gauges, aggregated across shards:
	// CheckpointBacklogBytes is committed page data awaiting background
	// writeback to the page file; WALBytes is the current size of the
	// write-ahead logs. GroupCommit summarizes batch sizes since startup
	// (cumulative fsync counts live in the engine map: commits,
	// group_commit_batches, group_fsyncs_saved, checkpoint_*).
	CheckpointBacklogBytes int64             `json:"checkpoint_backlog_bytes"`
	WALBytes               int64             `json:"wal_bytes"`
	GroupCommit            *groupCommitStats `json:"group_commit,omitempty"`
	// HistoryDropped counts read-path query-history records discarded
	// because the async recorder's queue was full.
	HistoryDropped int64 `json:"history_dropped"`

	// LoadWorkers is the ingest pipeline's configured fan-out (chunked
	// parsing and staging); Loads counts completed tree loads, and the
	// *_ns counters accumulate per-stage wall time across them. The four
	// stages sum to a load's work: parse (reading the body included),
	// index, stage (row encoding and run building, outside the writer
	// mutex) and insert (the apply under it). A load's waits are not in
	// them: see write_waits.lock and op_latencies.commit.
	LoadWorkers  int   `json:"load_workers"`
	Loads        int64 `json:"loads"`
	LoadParseNS  int64 `json:"load_parse_ns"`
	LoadIndexNS  int64 `json:"load_index_ns"`
	LoadStageNS  int64 `json:"load_stage_ns"`
	LoadInsertNS int64 `json:"load_insert_ns"`

	// Repl reports this server's replication role and per-shard state:
	// on a primary, each shard's published epoch and connected
	// subscriber count; on a follower, additionally the primary's epoch,
	// the apply lag in epochs, and stream liveness (connected / synced /
	// time since last frame);
	// last_error / last_error_ms name what broke a shard's last stream.
	Repl *repl.StatusResponse `json:"repl,omitempty"`
	// ReplWaits summarizes the time spent waiting on replication, from
	// the histograms /metrics exposes as crimsond_repl_fence_wait_seconds
	// ("fence": reads that blocked on X-Crimson-Min-Epoch until the apply
	// that published their epoch woke them) and
	// crimsond_repl_horizon_wait_seconds ("horizon": replicated applies
	// waiting for older local snapshots to close). Keys with no
	// observation are omitted; the wake-up, wait and timeout counts live
	// in the engine map (repl_fence_*).
	ReplWaits map[string]OpLatency `json:"repl_waits,omitempty"`
	// WriteWaits summarizes the time write requests spent waiting to write:
	// "lock" is the wait for the shard's writer mutex
	// (crimsond_write_lock_wait_seconds), one observation per acquisition
	// that found it held. Omitted until a write has waited.
	WriteWaits map[string]OpLatency `json:"write_waits,omitempty"`
}

// OpLatency summarizes one operation's latency histogram. Percentiles
// are upper bounds of the log2 bucket containing the rank, so they are
// conservative to within one power of two of microseconds.
type OpLatency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// ShardMVCC is one shard's storage-engine state: its committed epoch, open
// snapshot count, reclamation backlog, and durability-pipeline gauges.
type ShardMVCC struct {
	Shard                  int    `json:"shard"`
	Epoch                  uint64 `json:"epoch"`
	OpenSnapshots          int    `json:"open_snapshots"`
	PendingReclaimPages    int    `json:"pending_reclaim_pages"`
	CheckpointBacklogBytes int64  `json:"checkpoint_backlog_bytes"`
	WALBytes               int64  `json:"wal_bytes"`
}

// groupCommitStats summarizes the group-commit batch-size distribution:
// how many commits each flushed WAL batch carried. Percentile values are
// upper bounds of the log2 bucket containing the rank.
type groupCommitStats struct {
	Batches  int64   `json:"batches"`
	Commits  int64   `json:"commits"`
	AvgBatch float64 `json:"avg_batch"`
	P50Batch float64 `json:"p50_batch"`
	P95Batch float64 `json:"p95_batch"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}
