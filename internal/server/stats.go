package server

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/treestore"
)

// opStats is one operation's request count and latency histogram. A route
// holds its op's slot from registration on, so counting and timing a
// request is atomic adds with no lookup.
type opStats struct {
	name     string
	requests atomic.Int64
	latency  obs.Histogram
}

// serverStats holds the counters behind /v1/stats and /metrics. All hot
// paths are atomic; nothing takes a lock.
type serverStats struct {
	start          time.Time
	requests       atomic.Int64
	errors         atomic.Int64
	inFlightReads  atomic.Int64
	abortedReads   atomic.Int64
	panics         atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	historyDropped atomic.Int64

	// Ingest pipeline: completed loads and cumulative per-stage wall time.
	loads        atomic.Int64
	loadParseNS  atomic.Int64
	loadIndexNS  atomic.Int64
	loadStageNS  atomic.Int64
	loadInsertNS atomic.Int64

	// ops has one slot per op of the route table, added as routes are
	// mounted (never while the server serves).
	ops []*opStats
	// commitHist records storage-engine commit latency across all commit
	// sites (loads, writes, the history recorder, shutdown).
	commitHist obs.Histogram
	// lockWait records the time write requests spent blocked on their
	// shard's writer mutex: one observation per acquisition that found the
	// mutex held (an uncontended one is not observed).
	lockWait obs.Histogram
}

// op returns the named op's slot, adding it on first use.
func (st *serverStats) op(name string) *opStats {
	for _, o := range st.ops {
		if o.name == name {
			return o
		}
	}
	o := &opStats{name: name}
	st.ops = append(st.ops, o)
	return o
}

// countLoad records one completed tree load's per-stage timings.
func (st *serverStats) countLoad(parseNS int64, m treestore.LoadMetrics) {
	st.loads.Add(1)
	st.loadParseNS.Add(parseNS)
	st.loadIndexNS.Add(m.IndexNS)
	st.loadStageNS.Add(m.StageNS)
	st.loadInsertNS.Add(m.InsertNS)
}

// opHistEntry pairs an op name with a consistent snapshot of its latency
// histogram, for /metrics rendering and /v1/stats percentiles.
type opHistEntry struct {
	op string
	h  obs.HistSnapshot
}

// histSnapshots returns one entry per op with at least one observation,
// plus "commit" for engine commits, sorted by op name.
func (st *serverStats) histSnapshots() []opHistEntry {
	var out []opHistEntry
	for _, o := range st.ops {
		if h := o.latency.Snapshot(); h.Count > 0 {
			out = append(out, opHistEntry{op: o.name, h: h})
		}
	}
	if h := st.commitHist.Snapshot(); h.Count > 0 {
		out = append(out, opHistEntry{op: "commit", h: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].op < out[j].op })
	return out
}

func latencyOf(h obs.HistSnapshot) OpLatency {
	return OpLatency{
		Count: h.Count,
		P50MS: h.Quantile(0.50) * 1000,
		P95MS: h.Quantile(0.95) * 1000,
		P99MS: h.Quantile(0.99) * 1000,
	}
}

// waitHist is one wait histogram: group and key name it in /v1/stats
// (<group>_waits.<key>) and in /metrics
// (crimsond_<group>_<key>_wait_seconds).
type waitHist struct {
	group, key, help string
	h                obs.HistSnapshot
}

// waitSnapshots returns the wait histograms: the two replication waits
// (process-global, observed by the layers that wait) and this server's
// writer-mutex wait.
func (st *serverStats) waitSnapshots() []waitHist {
	return []waitHist{
		{"repl", "fence", "Time reads spent blocked on their X-Crimson-Min-Epoch fence before the publishing apply woke them.", obs.ReplFenceWait.Snapshot()},
		{"repl", "horizon", "Time replicated applies spent waiting for local snapshots older than the reclaim horizon to close.", obs.ReplHorizonWait.Snapshot()},
		{"write", "lock", "Time write requests spent blocked on their shard's writer mutex, one observation per contended acquisition; the mutex is held for page writes and commit capture only, never for parsing, staging or an fsync.", st.lockWait.Snapshot()},
	}
}

// snapshot captures every counter; cacheEntries and openTrees are
// supplied by the server since they live outside this struct.
func (st *serverStats) snapshot(cacheEntries, openTrees int) StatsSnapshot {
	perOp := make(map[string]int64)
	for _, o := range st.ops {
		if n := o.requests.Load(); n > 0 {
			perOp[o.name] = n
		}
	}
	lat := make(map[string]OpLatency)
	for _, e := range st.histSnapshots() {
		lat[e.op] = latencyOf(e.h)
	}
	waits := map[string]map[string]OpLatency{"repl": {}, "write": {}}
	for _, w := range st.waitSnapshots() {
		if w.h.Count > 0 {
			waits[w.group][w.key] = latencyOf(w.h)
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return StatsSnapshot{
		UptimeSeconds:  time.Since(st.start).Seconds(),
		Requests:       st.requests.Load(),
		Errors:         st.errors.Load(),
		InFlightReads:  st.inFlightReads.Load(),
		AbortedReads:   st.abortedReads.Load(),
		Panics:         st.panics.Load(),
		CacheHits:      st.cacheHits.Load(),
		CacheMisses:    st.cacheMisses.Load(),
		CacheEntries:   cacheEntries,
		OpenTrees:      openTrees,
		PerOp:          perOp,
		OpLatencies:    lat,
		ReplWaits:      waits["repl"],
		WriteWaits:     waits["write"],
		Engine:         obs.Engine.Snapshot(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: mem.HeapAlloc,
		HistoryDropped: st.historyDropped.Load(),
		Loads:          st.loads.Load(),
		LoadParseNS:    st.loadParseNS.Load(),
		LoadIndexNS:    st.loadIndexNS.Load(),
		LoadStageNS:    st.loadStageNS.Load(),
		LoadInsertNS:   st.loadInsertNS.Load(),
	}
}

// --- /metrics ---------------------------------------------------------------

// scalar is a family with one unlabelled sample.
type scalar struct{ name, typ, help, v string }

func gauge(name, help string, v int64) scalar {
	return scalar{name, "gauge", help, strconv.FormatInt(v, 10)}
}

func counter(name, help string, v int64) scalar {
	return scalar{name, "counter", help, strconv.FormatInt(v, 10)}
}

// perShard is a gauge family with one sample per shard, v(i) labelled
// shard="i".
type perShard struct {
	name, help string
	v          func(i int) int64
}

// exposition is a /metrics page being written. Every family carries
// # HELP and # TYPE metadata, counter names end in _total, and label values
// use plain double quotes, so a strict parser accepts the page.
type exposition struct{ strings.Builder }

func (e *exposition) family(name, typ, help string) {
	fmt.Fprintf(e, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (e *exposition) scalars(rows ...scalar) {
	for _, r := range rows {
		e.family(r.name, r.typ, r.help)
		fmt.Fprintf(e, "%s %s\n", r.name, r.v)
	}
}

func (e *exposition) perShard(shards int, rows ...perShard) {
	for _, r := range rows {
		e.family(r.name, "gauge", r.help)
		for i := 0; i < shards; i++ {
			fmt.Fprintf(e, "%s{shard=\"%d\"} %d\n", r.name, i, r.v(i))
		}
	}
}

// histogram writes one histogram's samples — cumulative buckets, then _sum
// and _count — under its family's metadata. labels is empty or
// `k="v"[,...]`. unitNS is the family's unit in the histogram's native
// nanoseconds: 1e9 for the seconds histograms, 1e3 for the batch-size one,
// whose "microseconds" count commits.
func (e *exposition) histogram(name, labels string, h obs.HistSnapshot, unitNS float64) {
	bucketLabels, braced := labels, ""
	if labels != "" {
		bucketLabels, braced = labels+",", "{"+labels+"}"
	}
	for i := 0; i < obs.HistBuckets; i++ {
		fmt.Fprintf(e, "%s_bucket{%sle=\"%s\"} %d\n", name, bucketLabels, hnum(float64(obs.BucketBoundUS(i))*1e3/unitNS), h.Counts[i])
	}
	fmt.Fprintf(e, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketLabels, h.Counts[obs.HistBuckets])
	fmt.Fprintf(e, "%s_sum%s %s\n", name, braced, hnum(float64(h.SumNS)/unitNS))
	fmt.Fprintf(e, "%s_count%s %d\n", name, braced, h.Count)
}

// fnum renders a float the way Prometheus expects (shortest round-trip
// representation, scientific notation allowed).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// hnum renders a histogram bound or sum: a whole number (a count of
// commits) as an integer, anything else as fnum does.
func hnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return fnum(v)
}

// metricsText renders the Prometheus exposition-format /metrics page from
// the same snapshot /v1/stats serves. Every family is emitted on every
// server from startup — zero-valued, or with no samples yet for the per-op
// families — so the series exist before anything has happened.
func metricsText(s StatsSnapshot, hists []opHistEntry, waits []waitHist) string {
	var e exposition
	e.scalars(
		scalar{"crimsond_uptime_seconds", "gauge", "Seconds since the server started.", fnum(s.UptimeSeconds)},
		counter("crimsond_requests_total", "HTTP API requests received.", s.Requests),
		counter("crimsond_errors_total", "Requests that returned an error response.", s.Errors),
		gauge("crimsond_inflight_reads", "Read requests currently executing.", s.InFlightReads),
		counter("crimsond_aborted_reads_total", "Read requests aborted by client disconnect or deadline.", s.AbortedReads),
		counter("crimsond_panics_total", "Requests whose handler panicked (answered 500, stack logged).", s.Panics),
		counter("crimsond_cache_hits_total", "Result-cache hits.", s.CacheHits),
		counter("crimsond_cache_misses_total", "Result-cache misses.", s.CacheMisses),
		gauge("crimsond_cache_entries", "Entries currently in the result cache.", int64(s.CacheEntries)),
		gauge("crimsond_open_trees", "Trees open in the repository catalog.", int64(s.OpenTrees)),
		gauge("crimsond_epoch", "Sum of committed MVCC epochs across shards.", int64(s.Epoch)),
		gauge("crimsond_open_snapshots", "Open MVCC snapshots across shards.", int64(s.OpenSnapshots)),
		gauge("crimsond_reclaim_pending_pages", "Pages awaiting MVCC reclamation across shards.", int64(s.PendingReclaimPages)),
		gauge("crimsond_shards", "Number of repository shards.", int64(len(s.Shards))),
	)
	sh := s.Shards
	e.perShard(len(sh),
		perShard{"crimsond_shard_epoch", "Committed MVCC epoch of one shard.", func(i int) int64 { return int64(sh[i].Epoch) }},
		perShard{"crimsond_shard_open_snapshots", "Open MVCC snapshots of one shard.", func(i int) int64 { return int64(sh[i].OpenSnapshots) }},
		perShard{"crimsond_shard_reclaim_pending_pages", "Pages awaiting MVCC reclamation on one shard.", func(i int) int64 { return int64(sh[i].PendingReclaimPages) }},
	)
	e.scalars(
		gauge("crimsond_checkpoint_backlog_bytes", "Committed page bytes awaiting checkpoint writeback across shards.", s.CheckpointBacklogBytes),
		gauge("crimsond_wal_bytes", "Current write-ahead log size across shards.", s.WALBytes),
	)
	e.perShard(len(sh),
		perShard{"crimsond_shard_checkpoint_backlog_bytes", "Committed page bytes awaiting checkpoint writeback on one shard.", func(i int) int64 { return sh[i].CheckpointBacklogBytes }},
		perShard{"crimsond_shard_wal_bytes", "Current write-ahead log size of one shard.", func(i int) int64 { return sh[i].WALBytes }},
	)
	e.scalars(
		counter("crimsond_history_dropped_total", "Query-history records dropped because the recorder queue was full.", s.HistoryDropped),
		gauge("crimsond_load_workers", "Configured ingest fan-out.", int64(s.LoadWorkers)),
		counter("crimsond_loads_total", "Completed tree loads.", s.Loads),
		counter("crimsond_load_parse_ns_total", "Wall time reading and parsing input across loads, in nanoseconds. parse, index, stage and insert sum to a load's work; its waits are crimsond_write_lock_wait_seconds and op=\"commit\".", s.LoadParseNS),
		counter("crimsond_load_index_ns_total", "Wall time indexing trees across loads, in nanoseconds.", s.LoadIndexNS),
		counter("crimsond_load_stage_ns_total", "Wall time staging relations across loads (row encoding and the sorted runs of every tree, outside the writer mutex), in nanoseconds.", s.LoadStageNS),
		counter("crimsond_load_insert_ns_total", "Wall time applying staged loads under the writer mutex (table creation and bulk page writes), in nanoseconds.", s.LoadInsertNS),
	)
	e.family("crimsond_op_requests_total", "counter", "Requests received, by operation.")
	ops := make([]string, 0, len(s.PerOp))
	for op := range s.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(&e, "crimsond_op_requests_total{op=\"%s\"} %d\n", op, s.PerOp[op])
	}

	// Replication: on a primary the follower-only families read zero.
	rs := s.Repl
	if rs == nil {
		rs = &repl.StatusResponse{Role: "primary"}
	}
	rsh := rs.Shards
	e.scalars(gauge("crimsond_repl_primary", "1 when this server is a writable primary, 0 while it is a follower.", b2i(rs.Role == "primary")))
	e.perShard(len(rsh),
		perShard{"crimsond_repl_epoch", "Published epoch of one shard (committed on a primary, applied on a follower).", func(i int) int64 { return int64(rsh[i].Epoch) }},
		perShard{"crimsond_repl_subscribers", "Connected replication subscribers of one shard.", func(i int) int64 { return int64(rsh[i].Subscribers) }},
		perShard{"crimsond_repl_primary_epoch", "Last epoch the primary reported for one shard (follower only; 0 on a primary).", func(i int) int64 { return int64(rsh[i].PrimaryEpoch) }},
		perShard{"crimsond_repl_lag_epochs", "Apply lag of one shard in epochs behind the primary (0 on a primary).", func(i int) int64 { return int64(rsh[i].LagEpochs) }},
		perShard{"crimsond_repl_connected", "1 while one shard's replication stream is connected (0 on a primary).", func(i int) int64 { return b2i(rsh[i].Connected) }},
		perShard{"crimsond_repl_synced", "1 once one shard's follower has caught up to the primary (0 on a primary).", func(i int) int64 { return b2i(rsh[i].Synced) }},
		perShard{"crimsond_repl_last_contact_ms", "Milliseconds since one shard's stream last heard from the primary.", func(i int) int64 { return rsh[i].LastContactMS }},
	)

	// One counter family per engine counter, absent (zero) ones included.
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		e.scalars(counter("crimsond_engine_"+c.Name()+"_total", c.Help(), s.Engine[c.Name()]))
	}

	e.family("crimsond_op_duration_seconds", "histogram", "End-to-end request latency by operation (op=\"commit\" is engine commit latency).")
	for _, h := range hists {
		e.histogram("crimsond_op_duration_seconds", "op=\""+h.op+"\"", h.h, 1e9)
	}
	// One observation per flushed WAL batch, valued at the commits it
	// carried: le bounds are powers of two of commits per batch.
	e.family("crimsond_group_commit_batch_size", "histogram", "Commits coalesced per flushed WAL batch.")
	e.histogram("crimsond_group_commit_batch_size", "", obs.GroupBatch.Snapshot(), 1e3)
	for _, w := range waits {
		name := "crimsond_" + w.group + "_" + w.key + "_wait_seconds"
		e.family(name, "histogram", w.help)
		e.histogram(name, "", w.h, 1e9)
	}

	e.scalars(
		gauge("crimsond_goroutines", "Goroutines currently running.", int64(s.Goroutines)),
		gauge("crimsond_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(s.HeapAllocBytes)),
		gauge("crimsond_gomaxprocs", "GOMAXPROCS setting.", int64(runtime.GOMAXPROCS(0))),
	)
	return e.String()
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
