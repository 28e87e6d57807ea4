// Package server is crimsond: Crimson's network face. It exposes the
// repository — tree loading, the §2.2 structure queries, species data,
// query history and benchmark runs — over an HTTP/JSON API so that many
// clients can share one long-lived service, the deployment model the
// paper's demo assumed (a shared data-management service for
// phylogenetics groups) and the layer every scaling PR plugs into.
//
// Every endpoint is a row of the route table (routes.go) — method and
// path, op name, read/write/plain, and the one handler function that
// differs — and every request runs through the one pipeline, serve, which
// counts, traces and answers it.
//
// Concurrency discipline: every read request runs against its own MVCC
// snapshot, pinned lazily per shard — a request touching one tree pins
// only that tree's shard. Snapshot reads are lock-free — they never touch
// a database mutex — so queries proceed at full speed while a bulk load or
// delete is in flight, and each request sees a consistent committed state
// (never a half-loaded or half-deleted tree). A semaphore bounds in-flight
// reads (Config.MaxInFlightReads); excess requests queue. Mutations —
// load, delete, species put — serialize on a per-shard writer mutex, held
// only while a mutation writes pages and captures its commit: body reads,
// parsing, indexing and staging come before it, every fsync wait after it.
// Each shard is its own storage engine with its own single-writer contract,
// and a write's history entry rides in its shard's transaction, so loads on
// different shards run genuinely in parallel, history append included. Read
// queries are recorded on shard 0, drained by an async recorder goroutine so
// recording never puts a read behind any writer lock. Repeated projections,
// LCAs, clades and pattern matches are served from a bounded LRU result
// cache keyed by (tree, version), where a tree's version is what the store
// stamped its nodes relation with when it was created
// (treestore.Tree.Version) — read from the request's own snapshot, so an
// entry names one incarnation of the tree whoever wrote it, and a reload
// under the same name gets a new version and new keys.
//
// Every read runs under its request's context: a client that disconnects
// or times out aborts the engine scan cooperatively, the request's
// snapshot pins release immediately (no reclamation backlog behind dead
// requests), and the abort is counted in aborted_reads. Tree export
// streams chunked Newick rather than materializing the serialization, and
// the tree and history listings paginate with limit + opaque cursor.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/nexus"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/queryrepo"
	"repro/internal/relstore"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/species"
	"repro/internal/treestore"
)

// Backend is the repository: one relational database per shard, the three
// §2.1 repositories over them, and the one writer both entrances — crimsond
// and the crimson facade — mutate it through. Trees and their species data
// are placed on shards by Router. A write's history entry lands on its own
// shard, in its own transaction; a read query's is recorded on shard 0.
//
// writeMus holds one writer mutex per database. A mutation takes only its
// shard's, to write pages (its history entry included) and capture its
// commit. Load is the one apply of a tree load; the facade's raw Trees and
// Species writes bypass the mutexes.
type Backend struct {
	DBs     []*relstore.DB
	Router  *shard.Router
	Trees   *treestore.Store
	Species *species.Repo

	queries  *queryrepo.Repo
	writeMus []sync.Mutex
	// lockWait records the time writers spent blocked on a writer mutex:
	// one observation per acquisition that found it held.
	lockWait obs.Histogram
}

// NewBackend layers the three repositories over one database per shard.
func NewBackend(dbs []*relstore.DB) (*Backend, error) {
	router, err := shard.NewRouter(len(dbs))
	if err != nil {
		return nil, err
	}
	trees, err := treestore.NewOnShards(dbs, router)
	if err != nil {
		return nil, err
	}
	sp, err := species.NewOnShards(dbs, router)
	if err != nil {
		return nil, err
	}
	q, err := queryrepo.NewOnShards(dbs)
	if err != nil {
		return nil, err
	}
	return &Backend{DBs: dbs, Router: router, Trees: trees, Species: sp, queries: q,
		writeMus: make([]sync.Mutex, len(dbs))}, nil
}

// lock takes shard i's writer mutex. Time spent blocked on it is ctx's
// "write_lock_wait" child span and one observation of lockWait; an
// acquisition that finds the mutex free records nothing.
func (b *Backend) lock(ctx context.Context, i int) {
	mu := &b.writeMus[i]
	if mu.TryLock() {
		return
	}
	start := time.Now()
	mu.Lock()
	d := time.Since(start)
	b.lockWait.Observe(d)
	obs.SpanFrom(ctx).AddTimed("write_lock_wait", d)
}

// Load applies a prepared load under its tree's shard writer mutex: the
// tree, then chars' sequences (nil for none) in the Species Repository
// under kind "seq:nexus", then the load's history entry, all on the tree's
// shard. It returns that shard's commit, which carries all three, captured
// and not waited for, so the caller waits outside the mutex and concurrent
// writers coalesce into one WAL flush. A sequence or entry that fails to
// store takes the tree and its sequences back out of the working state
// before the mutex drops, so no commit publishes half a load. The progress
// lines of the apply are said once the mutex is released, so the load's
// progress sink may write to the repository.
func (b *Backend) Load(ctx context.Context, p *treestore.PreparedLoad, chars *nexus.Characters) (*relstore.CommitWaiter, error) {
	info := p.Info()
	si := b.Router.Place(info.Name)
	defer p.Report() // after the unlock below: a progress sink may commit
	b.lock(ctx, si)
	defer b.writeMus[si].Unlock()
	if err := p.Apply(); err != nil {
		return nil, err
	}
	var err error
	for i := 0; chars != nil && err == nil && i < len(chars.Order); i++ {
		taxon := chars.Order[i]
		err = b.Species.Put(info.Name, taxon, "seq:nexus", []byte(chars.Seqs[taxon]))
	}
	if err == nil {
		_, err = b.queries.Record(si, queryrepo.Load{F: info.F, Nodes: info.Nodes, Tree: info.Name},
			fmt.Sprintf("loaded %d nodes", info.Nodes))
	}
	if err != nil {
		derr := b.Trees.Drop(info.Name)
		_, serr := b.Species.DeleteTree(info.Name)
		return nil, errors.Join(err, derr, serr)
	}
	return b.DBs[si].CommitAsync(), nil
}

// Record appends a read query's entry to shard 0's history under its writer
// mutex and returns that shard's commit, captured, not waited for. A read
// entry carries no other write, so its shard changes no atomicity.
func (b *Backend) Record(q queryrepo.Query, summary string) (e queryrepo.Entry, w *relstore.CommitWaiter, err error) {
	b.writeMus[0].Lock()
	defer b.writeMus[0].Unlock()
	if e, err = b.queries.Record(0, q, summary); err == nil {
		w = b.DBs[0].CommitAsync()
	}
	return e, w, err
}

// CommitWaiter tracks the durability of one captured commit per shard.
type CommitWaiter struct {
	waiters []*relstore.CommitWaiter
}

// CommitAsync captures every shard's pending transaction, each under its
// shard's writer mutex and one shard at a time, and returns a waiter for
// their durability.
func (b *Backend) CommitAsync() *CommitWaiter {
	w := &CommitWaiter{waiters: make([]*relstore.CommitWaiter, len(b.DBs))}
	for i, db := range b.DBs {
		b.writeMus[i].Lock()
		w.waiters[i] = db.CommitAsync()
		b.writeMus[i].Unlock()
	}
	return w
}

// Wait blocks until every shard's commit is durable. The waits fan out
// across goroutines: each may lead its own store's group flush, so the
// shards' WAL fsyncs run in parallel rather than back to back.
func (w *CommitWaiter) Wait() error {
	errs := make([]error, len(w.waiters))
	var wg sync.WaitGroup
	for i, cw := range w.waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cw.Wait(); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Config tunes the server. The zero value is usable.
type Config struct {
	// Addr is the listen address for Start
	// (default ":8321").
	Addr string
	// MaxInFlightReads bounds concurrently executing read requests;
	// excess requests wait for a slot (default 64).
	MaxInFlightReads int
	// ResultCacheSize is the LRU result-cache capacity in entries
	// (default 1024; negative disables caching).
	ResultCacheSize int
	// MaxBodyBytes caps request bodies — tree uploads included
	// (default 256 MiB).
	MaxBodyBytes int64
	// LoadWorkers bounds the ingest pipeline's fan-out — chunked Newick
	// parsing and row staging — per load request (default GOMAXPROCS).
	// Every worker count stores bit-for-bit identical relations.
	LoadWorkers int
	// Logf receives server log lines (nil = silent).
	Logf func(format string, args ...any)
	// Logger receives structured request and slow-query records (nil =
	// fall back to Logf for slow queries, silent otherwise).
	Logger *slog.Logger
	// SlowQueryMS logs any request slower than this many milliseconds
	// together with its full span tree (0 disables). Setting it enables
	// span collection on every request.
	SlowQueryMS int
	// Trace forces span collection on every request, as if each carried
	// ?debug=trace (the span is only echoed in the response when the
	// client actually asks). Off, spans are still collected per request
	// when ?debug=trace or SlowQueryMS asks for them; the engine counters
	// in /metrics are always live.
	Trace bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8321"
	}
	if c.MaxInFlightReads == 0 {
		c.MaxInFlightReads = 64
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 1024
	}
	if c.ResultCacheSize < 0 {
		c.ResultCacheSize = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.LoadWorkers <= 0 {
		c.LoadWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server serves the crimsond HTTP API over one repository.
type Server struct {
	cfg     Config
	be      *Backend
	mux     *http.ServeMux
	stats   *serverStats
	cache   *resultCache
	slogger *slog.Logger // nil unless Config.Logger was set
	reqSeq  atomic.Int64 // request-id sequence

	readSem chan struct{} // bounds in-flight reads

	// follower, when set, is the apply loops feeding this server as a
	// read-only replica until POST /v1/repl/promote.
	follower *repl.Follower
	// pubs streams each shard's WAL batches to replication subscribers.
	// Publishers exist on every server (they are inert without
	// subscribers), so any primary can feed followers without restart.
	pubs []*repl.Publisher
	// readOnly is true while this server is an unpromoted follower:
	// writes 403, reads serve at the last applied epoch, and no history
	// is recorded for them.
	readOnly  atomic.Bool
	promoteMu sync.Mutex // serializes POST /v1/repl/promote
	// promoteDegraded is set when a promote attempt failed after the
	// apply loops stopped: the server still reports as a follower but
	// nothing is replicating. Surfaced in /v1/repl/status; retrying
	// promote clears it.
	promoteDegraded atomic.Bool
	// streamCtx cancels open replication streams at Shutdown —
	// http.Server.Shutdown waits for active requests, and a stream never
	// ends on its own.
	streamCtx    context.Context
	streamCancel context.CancelFunc

	recCh     chan histRecord // read-path history records, drained async
	recWG     sync.WaitGroup
	recStart  sync.Once    // lazily spawns recordLoop on the first record
	recMu     sync.RWMutex // guards recCh sends against shutdown close
	recClosed bool

	httpSrv *http.Server
	lnMu    sync.Mutex
	ln      net.Listener
}

// histRecord is one deferred query-history append.
type histRecord struct {
	q       queryrepo.Query
	summary string
}

// New builds a server over the backend. A non-nil follower makes it a
// read-only replica fed by those apply loops: writes return 403, reads serve
// at each shard's last applied epoch, and POST /v1/repl/promote flips the
// process into a writable primary. Call Start to accept connections, or use
// the server directly as an http.Handler.
func New(be *Backend, follower *repl.Follower, cfg Config) *Server {
	cfg = cfg.withDefaults()
	// A follower caches like a primary: its snapshots read the versions
	// the primary stamped, so an entry names the same incarnation on both,
	// and a promote keeps the cache.
	s := &Server{
		cfg:      cfg,
		be:       be,
		follower: follower,
		mux:      http.NewServeMux(),
		stats:    &serverStats{start: time.Now()},
		cache:    newResultCache(cfg.ResultCacheSize),
		readSem:  make(chan struct{}, cfg.MaxInFlightReads),
		recCh:    make(chan histRecord, 256),
	}
	s.slogger = cfg.Logger
	s.streamCtx, s.streamCancel = context.WithCancel(context.Background())
	s.readOnly.Store(follower != nil)
	s.pubs = make([]*repl.Publisher, len(be.DBs))
	for i, db := range be.DBs {
		s.pubs[i] = repl.NewPublisher(db.Store())
	}
	for _, rt := range routes {
		s.mount(rt)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.httpSrv = &http.Server{Handler: s}
	return s
}

// recordLoop drains read-path history records onto the write path of
// shard 0, where read queries are recorded. Taking that shard's writer mutex
// keeps history appends (and especially their commits) from interleaving
// with a half-applied load or delete on the same shard; readers themselves
// never wait on it. Commits (which fsync on file-backed stores and publish
// a new epoch) are throttled to once per recCommitBatch records or
// recCommitInterval, whichever comes first, so a steady query stream costs
// at most ~one fsync per second — not one per query. Records not yet
// committed become durable at the next commit of shard 0: a write whose
// tree is placed there, the flush recCommitInterval after the batch
// began, or Shutdown. A write on any other shard commits its own shard
// only.
func (s *Server) recordLoop() {
	defer s.recWG.Done()
	const (
		recCommitBatch    = 64
		recCommitInterval = time.Second
	)
	pending, lastCommit := 0, time.Now()
	var flush <-chan time.Time // armed while records await commit
	for open := true; open; {
		var recs []histRecord
		select {
		case rec, ok := <-s.recCh:
			if open = ok; ok {
				recs = append(recs, rec)
			}
		case <-flush:
			flush = nil // fired: the batch is due
		}
	drain:
		for open && pending+len(recs) < 4*recCommitBatch {
			select {
			case rec, ok := <-s.recCh:
				if open = ok; ok {
					recs = append(recs, rec)
				}
			default:
				break drain
			}
		}
		// The commit is captured under the shard-0 writer mutex and waited
		// for after it is released, so the recorder's fsync coalesces with
		// concurrent write endpoints.
		cc := &commitCollector{s: s, ctx: context.Background()} // shard 0
		s.be.writeMus[0].Lock()
		for _, rec := range recs {
			if _, err := s.be.queries.Record(0, rec.q, rec.summary); err != nil {
				s.logf("crimsond: recording %s query: %v", rec.q.Kind(), err)
			}
		}
		if pending += len(recs); pending > 0 && (!open || pending >= recCommitBatch || time.Since(lastCommit) >= recCommitInterval) {
			cc.commitAsync()
			pending, lastCommit, flush = 0, time.Now(), nil
		} else if pending > 0 && flush == nil {
			flush = time.After(recCommitInterval)
		}
		s.be.writeMus[0].Unlock()
		if err := cc.wait(); err != nil {
			s.logf("crimsond: committing history batch: %v", err)
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ServeHTTP makes the server usable as a plain http.Handler. It is also the
// one place a handler panic is caught: the request is answered 500 with its
// id (or, once its body has begun, cut), counted, and its stack logged. The
// handler's own defers have run by then, so its read slot and snapshot pins
// are back.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &startedWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { // a stream cut on purpose
			panic(rec)
		}
		s.stats.panics.Add(1)
		rid := sw.Header().Get("X-Request-Id")
		if rid == "" { // it panicked before, or outside, beginOp
			rid = s.nextRequestID()
			sw.Header().Set("X-Request-Id", rid)
		}
		if s.slogger != nil {
			s.slogger.Error("handler panic", "req_id", rid, "path", r.URL.Path, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
		} else {
			s.logf("crimsond: panic serving %s req=%s: %v\n%s", r.URL.Path, rid, rec, debug.Stack())
		}
		if sw.started {
			panic(http.ErrAbortHandler)
		}
		s.fail(sw, http.StatusInternalServerError, fmt.Errorf("internal error (request %s)", rid))
	}()
	// The limit reader gets w itself: on an oversized body it asks net/http's
	// own writer to close the connection.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(sw, r)
}

func (s *Server) nextRequestID() string {
	return "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}

// Start listens on Config.Addr and serves in the background, returning
// once the listener is bound (so Addr reports the real port, ephemeral
// ports included).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("crimsond: serve: %v", err)
		}
	}()
	s.logf("crimsond: listening on %s", ln.Addr())
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully drains in-flight requests and the async history
// recorder, then commits every shard so buffered query-history records
// (and any other pending pages) reach the page files.
func (s *Server) Shutdown(ctx context.Context) error {
	s.streamCancel() // unhook replication streams so Shutdown can drain
	err := s.httpSrv.Shutdown(ctx)
	for _, p := range s.pubs {
		p.Close()
	}
	s.recMu.Lock()
	if !s.recClosed {
		s.recClosed = true
		close(s.recCh)
	}
	s.recMu.Unlock()
	s.recWG.Wait()
	return errors.Join(err, s.be.CommitAsync().Wait())
}

func (s *Server) snapshot() StatsSnapshot {
	st := s.stats.snapshot(s.cache.len(), s.waitSnapshots())
	st.LoadWorkers = s.cfg.LoadWorkers
	st.Shards = make([]ShardMVCC, len(s.be.DBs))
	for i, db := range s.be.DBs {
		mv := db.MVCC()
		backlog, wal := db.Store().CheckpointBacklog(), db.Store().WALSize()
		st.Epoch += mv.Epoch
		st.OpenSnapshots += mv.OpenSnapshots
		st.PendingReclaimPages += mv.PendingReclaimPages
		st.CheckpointBacklogBytes += backlog
		st.WALBytes += wal
		st.Shards[i] = ShardMVCC{
			Shard:                  i,
			Epoch:                  mv.Epoch,
			OpenSnapshots:          mv.OpenSnapshots,
			PendingReclaimPages:    mv.PendingReclaimPages,
			CheckpointBacklogBytes: backlog,
			WALBytes:               wal,
		}
	}
	rs := s.replStatus()
	st.Repl = &rs
	if gb := obs.GroupBatch.Snapshot(); gb.Count > 0 {
		st.GroupCommit = &groupCommitStats{
			Batches:  gb.Count,
			Commits:  gb.SumNS / int64(time.Microsecond),
			AvgBatch: float64(gb.SumNS) / float64(time.Microsecond) / float64(gb.Count),
			P50Batch: gb.Quantile(0.50) * 1e6,
			P95Batch: gb.Quantile(0.95) * 1e6,
		}
	}
	return st
}

// reqSnap is a read request's MVCC view and read slot: at most one
// relational snapshot per shard, pinned lazily so a request touching a
// single tree pins only that tree's shard. The pipeline releases it when
// the request ends; a handler done with the store sooner (bench) releases
// it early, and the pipeline's release is then a no-op.
type reqSnap struct {
	s        *Server
	sns      []*relstore.Snap // indexed by shard; nil until first touched
	released bool
}

// acquireRead takes a read slot (bounded in-flight) and opens the request's
// snapshot view. A client that goes away while queued for a slot gets its
// context's error: a client abort like any other, answered 499 and counted
// in aborted_reads.
func (s *Server) acquireRead(r *http.Request) (*reqSnap, error) {
	select {
	case s.readSem <- struct{}{}:
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
	s.stats.inFlightReads.Add(1)
	return &reqSnap{s: s, sns: make([]*relstore.Snap, len(s.be.DBs))}, nil
}

// release closes the pinned snapshots and gives the read slot back; on
// cancellation the engine scans abort cooperatively, so a disconnected
// client's epoch pins go promptly instead of riding out the full query.
// Idempotent. A reqSnap serves one request goroutine, so no locking is
// needed.
func (sn *reqSnap) release() {
	if sn.released {
		return
	}
	sn.released = true
	for _, rs := range sn.sns {
		if rs != nil {
			rs.Close()
		}
	}
	sn.s.stats.inFlightReads.Add(-1)
	<-sn.s.readSem
}

// pin pins (once) the snapshot of shard i, or of every shard when i < 0
// (the tree listing, the query history), and returns the request's
// snapshots, indexed by shard as the repositories' views read them.
func (sn *reqSnap) pin(i int) []*relstore.Snap {
	for j := range sn.sns {
		if sn.sns[j] == nil && (i < 0 || i == j) {
			sn.sns[j] = sn.s.be.DBs[j].Snapshot()
		}
	}
	return sn.sns
}

// tree opens a handle on a stored tree as of the request's snapshot.
func (s *Server) tree(sn *reqSnap, name string) (*treestore.Tree, error) {
	return treestore.SnapOnShards(sn.pin(s.be.Router.Place(name)), s.be.Router).Tree(name)
}

// observeCommitWaiter records one awaited commit: total latency in the
// commit histogram plus, on traced requests, the pipeline stages as child
// spans — "wal_append" (the WAL write+fsync the commit rode in),
// "group_wait" (time queued behind the group-commit leader) and
// "checkpoint" (an inline backpressure checkpoint, when one ran).
func (s *Server) observeCommitWaiter(ctx context.Context, w *relstore.CommitWaiter, d time.Duration) {
	s.stats.commitHist.Observe(d)
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		return
	}
	sp.AddTimed("commit", d)
	wal := w.WALTime()
	ckpt := w.CheckpointTime()
	if wal > 0 {
		sp.AddTimed("wal_append", wal)
	}
	if gw := d - wal - ckpt; gw > 0 && w.BatchSize() > 0 {
		sp.AddTimed("group_wait", gw)
	}
	if ckpt > 0 {
		sp.AddTimed("checkpoint", ckpt)
	}
}

// commitCollector carries one write request through the three phases of a
// mutation. Prepare is whatever the handler does before apply — reading the
// body, parsing, staging — with no lock held. apply runs the handler's
// mutation under its shard's writer mutex: page writes and commit capture
// (commitAsync) and nothing that blocks; a load's apply is Backend.Load,
// and the handler adds the commit it captured to waiters. The wait —
// every captured commit's WAL fsync, then the afterPublish steps — is the
// write pipeline's, after the mutex is released. That window (transaction captured, lock released,
// fsync pending) is what lets concurrent write requests coalesce into one
// WAL flush (group commit), and keeping the other two phases out of the
// mutex is what keeps a writer from queueing behind another's upload, parse
// or disk.
type commitCollector struct {
	s         *Server
	ctx       context.Context
	si        int // the request's shard
	waiters   []*relstore.CommitWaiter
	published []func()
}

// apply runs fn under the request's shard writer mutex.
func (cc *commitCollector) apply(fn func() error) error {
	cc.s.be.lock(cc.ctx, cc.si)
	defer cc.s.be.writeMus[cc.si].Unlock()
	return fn()
}

// commitAsync captures the request shard's pending transaction now; the
// caller holds that shard's writer mutex. Durability is awaited by the
// pipeline.
func (cc *commitCollector) commitAsync() {
	cc.waiters = append(cc.waiters, cc.s.be.DBs[cc.si].CommitAsync())
}

// afterPublish registers a step the pipeline runs once every collected
// commit has been waited for.
func (cc *commitCollector) afterPublish(fn func()) {
	cc.published = append(cc.published, fn)
}

// wait blocks until every collected commit is durable, runs the
// afterPublish steps and returns the first error.
func (cc *commitCollector) wait() error {
	var firstErr error
	for _, w := range cc.waiters {
		start := time.Now()
		err := w.Wait()
		cc.s.observeCommitWaiter(cc.ctx, w, time.Since(start))
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, fn := range cc.published {
		fn()
	}
	return firstErr
}

func infoJSON(i treestore.TreeInfo) TreeInfo {
	return TreeInfo{Name: i.Name, Nodes: i.Nodes, Leaves: i.Leaves, F: i.F, Layers: i.Layers, Depth: i.Depth}
}

func nodeJSON(n treestore.Node) Node {
	return Node{ID: n.ID, Parent: n.Parent, Name: n.Name, Length: n.Length,
		Depth: n.Depth, Dist: n.Dist, Leaf: n.Leaf, Size: n.Size}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// queryInt parses an integer query parameter the way strconv.Atoi (int)
// or strconv.ParseInt (int64) does; absent, it is def.
func queryInt[T int | int64](query url.Values, key string, def T) (T, error) {
	raw := query.Get(key)
	if raw == "" {
		return def, nil
	}
	var v int64
	var err error
	if _, isInt := any(def).(int); isInt {
		var n int
		n, err = strconv.Atoi(raw)
		v = int64(n)
	} else {
		v, err = strconv.ParseInt(raw, 10, 64)
	}
	if err != nil {
		return 0, badRequest("bad %s=%q: %v", key, raw, err)
	}
	return T(v), nil
}

// recordAsync enqueues a read-path history record for the recorder
// goroutine. Read handlers must never touch the write path themselves — a
// bulk load in flight would stall them — so the append happens later,
// off the request's latency path. A full queue drops the record (counted
// in stats) rather than block a reader. The recorder goroutine spawns
// lazily on the first record, so a Server used as a bare http.Handler
// and never queried leaks nothing; once queries have flowed, Shutdown is
// what stops the recorder.
func (s *Server) recordAsync(v queryrepo.Query, summary string) {
	if s.readOnly.Load() {
		return // a replica's history is replicated, not locally written
	}
	s.recMu.RLock()
	defer s.recMu.RUnlock()
	if s.recClosed {
		return
	}
	s.recStart.Do(func() {
		s.recWG.Add(1)
		go s.recordLoop()
	})
	select {
	case s.recCh <- histRecord{q: v, summary: summary}:
	default:
		s.stats.historyDropped.Add(1)
	}
}

// --- pagination cursors ----------------------------------------------------

// Cursors are opaque to clients: base64url over a versioned "<kind>:<pos>"
// payload, where pos is the resume position of the underlying scan — the
// last tree name for /v1/trees (the shard-merge resume point), the
// oldest-returned history id for /v1/history. The kind tag keeps a cursor
// from one endpoint from being replayed against another.
const (
	treeCursorKind    = "t1"
	historyCursorKind = "h1"
)

func encodeCursor(kind, pos string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(kind + ":" + pos))
}

func decodeCursor(kind, cursor string) (string, error) {
	if cursor == "" {
		return "", nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return "", badRequest("bad cursor: %v", err)
	}
	pos, ok := strings.CutPrefix(string(raw), kind+":")
	if !ok {
		return "", badRequest("cursor does not belong to this endpoint")
	}
	// The decoder lets line breaks and loose trailing bits through; the
	// server never issued such a token.
	if encodeCursor(kind, pos) != cursor {
		return "", badRequest("bad cursor: not a token this server issued")
	}
	return pos, nil
}

// --- tree handlers ---------------------------------------------------------

// handleTrees lists stored trees. With limit and/or cursor it pages: each
// page resumes the name-sorted shard merge from where the previous one
// stopped, reading only what the page needs from each shard. Without
// either parameter it returns the full listing, as before.
func (s *Server) handleTrees(q *req) (any, error) {
	limit, err := queryInt(q.query, "limit", 0)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, badRequest("bad limit %d: must be >= 0", limit)
	}
	after, err := decodeCursor(treeCursorKind, q.query.Get("cursor"))
	if err != nil {
		return nil, err
	}
	infos, next, err := treestore.SnapOnShards(q.sn.pin(-1), s.be.Router).TreesPage(q.Context(), after, limit)
	if err != nil {
		return nil, err
	}
	resp := TreesResponse{Trees: make([]TreeInfo, len(infos))}
	for i, info := range infos {
		resp.Trees[i] = infoJSON(info)
	}
	if next != "" {
		resp.NextCursor = encodeCursor(treeCursorKind, next)
	}
	return resp, nil
}

func (s *Server) handleInfo(q *req) (any, error) {
	t, err := s.tree(q.sn, q.PathValue("name"))
	if err != nil {
		return nil, err
	}
	return infoJSON(t.Info()), nil
}

// handleLoad stores a tree posted as a Newick or NEXUS body. The body
// streams through the parser for NEXUS; Newick is read whole (the
// grammar needs the full string) but still bounded by MaxBodyBytes.
// Reading, parsing, indexing and staging all happen before the writer
// mutex is taken: a slow upload or a large tree delays nobody else.
func (s *Server) handleLoad(q *req) (any, error) {
	name, cc := q.PathValue("name"), q.cc
	f, err := queryInt(q.query, "f", core.DefaultFanout)
	if err != nil {
		return nil, err
	}
	format := q.query.Get("format")
	if format == "" {
		format = "newick"
	}
	progress := func(msg string) { s.logf("crimsond: load %s: %s", name, msg) }

	var t *phylo.Tree
	var chars *nexus.Characters
	parseStart := time.Now()
	switch format {
	case "newick":
		var raw strings.Builder
		if _, err := io.Copy(&raw, q.Body); err != nil {
			return nil, badRequest("reading body: %w", err)
		}
		if t, err = newick.ParseWorkers(raw.String(), s.cfg.LoadWorkers); err != nil {
			return nil, err
		}
	case "nexus":
		doc, err := nexus.Parse(q.Body)
		if err != nil {
			return nil, badRequest("parsing NEXUS: %w", err)
		}
		if len(doc.Trees) == 0 {
			return nil, badRequest("NEXUS document has no trees")
		}
		t, chars = doc.Trees[0].Tree, doc.Characters
	default:
		return nil, badRequest("unknown format %q (want newick or nexus)", format)
	}
	parseNS := time.Since(parseStart).Nanoseconds()
	var metrics treestore.LoadMetrics
	opts := treestore.LoadOptions{Workers: s.cfg.LoadWorkers, Metrics: &metrics}
	p, err := s.be.Trees.PrepareLoad(name, t, f, opts, progress)
	if err != nil {
		return nil, err
	}

	w, err := s.be.Load(q.Context(), p, chars)
	if err != nil {
		return nil, err
	}
	cc.waiters = append(cc.waiters, w)
	cc.afterPublish(p.Committed)
	s.stats.countLoad(parseNS, metrics)
	if sp := obs.SpanFrom(q.Context()); sp != nil {
		sp.AddTimed("parse", time.Duration(parseNS))
		sp.AddTimed("index", time.Duration(metrics.IndexNS))
		sp.AddTimed("stage", time.Duration(metrics.StageNS))
		sp.AddTimed("insert", time.Duration(metrics.InsertNS))
	}
	resp := LoadResponse{Tree: infoJSON(p.Info())}
	if chars != nil {
		resp.Sequences = len(chars.Order)
	}
	return resp, nil
}

func (s *Server) handleDelete(q *req) (any, error) {
	name, cc := q.PathValue("name"), q.cc
	return nil, cc.apply(func() error {
		if err := s.be.Trees.Drop(name); err != nil {
			return err
		}
		// The drop and its history entry are captured before the fallible
		// species cleanup: a failed cleanup leaves the tree deleted, not
		// half deleted.
		_, err := s.be.queries.Record(cc.si, queryrepo.Delete{Tree: name}, "deleted")
		cc.commitAsync()
		if err != nil {
			return err
		}
		if _, err := s.be.Species.DeleteTree(name); err != nil {
			return err
		}
		cc.commitAsync()
		return nil
	})
}

// handleExport streams the stored tree as chunked Newick: one relation
// scan feeding the incremental emitter, so the server never materializes
// the tree or its serialization — peak memory is the emit chunk, and a
// client that disconnects stops the scan (and releases the snapshot)
// within one cancellation check.
func (s *Server) handleExport(q *req) (any, error) {
	t, err := s.tree(q.sn, q.PathValue("name"))
	if err != nil {
		return nil, err
	}
	q.w.Header().Set("Content-Type", "text/x-newick; charset=utf-8")
	if err := t.ExportNewickTo(q.Context(), q.w); err != nil {
		return nil, err
	}
	_, err = io.WriteString(q.w, "\n")
	return streamed{}, err
}

// --- query handlers --------------------------------------------------------

// cacheable is an answer the result cache holds: one of the four
// cacheable queries' responses. asHit is the copy a cache hit serves,
// marked "cached": true.
type cacheable interface{ asHit() any }

func (r ProjectResponse) asHit() any { r.Cached = true; return r }
func (r LCAResponse) asHit() any     { r.Cached = true; return r }
func (r CladeResponse) asHit() any   { r.Cached = true; return r }
func (r MatchResponse) asHit() any   { r.Cached = true; return r }

// cachedQuery answers a cacheable query (project, lca, clade, match): it
// opens the tree from the request's snapshot and answers from the result
// cache under (tree, the handle's version, canonical value), else by running
// compute on the handle, caching what it answers and recording v with the
// summary compute returns. A query on a tree the snapshot lacks counts as a
// miss. So does every query on a tree of version 0: its nodes relation was
// created without a stamp (a file, or a primary, from before stamps), so
// every incarnation of it has that version and none may answer for another.
func (s *Server) cachedQuery(q *req, v queryrepo.Query, compute func(t *treestore.Tree) (cacheable, string, error)) (any, error) {
	t, err := s.tree(q.sn, v.TreeName())
	if err != nil {
		s.stats.cacheMisses.Add(1)
		return nil, err
	}
	version := t.Version()
	k := cacheKey(version, v)
	if version != 0 {
		if hit, ok := s.cache.get(k); ok {
			s.stats.cacheHits.Add(1)
			return hit.(cacheable).asHit(), nil
		}
	}
	s.stats.cacheMisses.Add(1)
	resp, summary, err := compute(t)
	if err != nil {
		return nil, err
	}
	s.recordAsync(v, summary)
	if version != 0 {
		s.cache.put(k, resp)
	}
	return resp, nil
}

// answer runs a query value the way its endpoint does — the four
// cacheable kinds through the result cache, each recorded in the history
// when it ran — and returns that endpoint's JSON body. The read endpoints
// and POST /v1/history/{id}/rerun all end here.
func (s *Server) answer(q *req, v queryrepo.Query) (any, error) {
	ctx := q.Context()
	switch v := v.(type) {
	case queryrepo.LCA:
		return s.cachedQuery(q, v, func(t *treestore.Tree) (cacheable, string, error) {
			n, summary, err := v.Run(ctx, t)
			return LCAResponse{Node: nodeJSON(n)}, summary, err
		})
	case queryrepo.Project:
		return s.cachedQuery(q, v, func(t *treestore.Tree) (cacheable, string, error) {
			p, summary, err := v.Run(ctx, t)
			if err != nil {
				return nil, "", err
			}
			return ProjectResponse{Newick: summary, Leaves: p.NumLeaves()}, summary, nil
		})
	case queryrepo.Clade:
		return s.cachedQuery(q, v, func(t *treestore.Tree) (cacheable, string, error) {
			nodes, leaves, summary, err := v.Run(ctx, t)
			if err != nil {
				return nil, "", err
			}
			return CladeResponse{Root: nodeJSON(nodes[0]), Nodes: len(nodes), Leaves: len(leaves), Species: leaves}, summary, nil
		})
	case queryrepo.Match:
		// One parse writes the pattern canonically, for the key and the
		// history, and answers a miss.
		pattern, err := newick.Parse(v.Pattern)
		if err != nil {
			return nil, err
		}
		v.Pattern = newick.String(pattern)
		return s.cachedQuery(q, v, func(t *treestore.Tree) (cacheable, string, error) {
			m, summary, err := v.Run(ctx, t, pattern)
			if err != nil {
				return nil, "", err
			}
			return MatchResponse{Exact: m.Exact, RF: m.RF, NormRF: m.Normalized, Projected: newick.String(m.Projected)}, summary, nil
		})
	case queryrepo.Sample:
		t, err := s.tree(q.sn, v.Tree)
		if err != nil {
			return nil, err
		}
		names, summary, err := v.Run(ctx, t)
		if err != nil {
			return nil, err
		}
		s.recordAsync(v, summary)
		return SampleResponse{Species: names}, nil
	case queryrepo.Bench:
		return s.runBench(q, v, 0)
	}
	return nil, badRequest("a %s query cannot be rerun", v.Kind())
}

func (s *Server) handleProject(q *req) (any, error) {
	names := splitList(q.query.Get("species"))
	if len(names) == 0 {
		return nil, badRequest("species parameter is required")
	}
	return s.answer(q, queryrepo.Project{Species: names, Tree: q.PathValue("name")})
}

func (s *Server) handleLCA(q *req) (any, error) {
	a, b := q.query.Get("a"), q.query.Get("b")
	if a == "" || b == "" {
		return nil, badRequest("a and b parameters are required")
	}
	return s.answer(q, queryrepo.LCA{A: a, B: b, Tree: q.PathValue("name")})
}

func (s *Server) handleSample(q *req) (any, error) {
	v := queryrepo.Sample{Time: -1, Tree: q.PathValue("name")}
	var err error
	if v.K, err = queryInt(q.query, "k", 10); err != nil {
		return nil, err
	}
	if v.Seed, err = queryInt(q.query, "seed", int64(1)); err != nil {
		return nil, err
	}
	if raw := q.query.Get("time"); raw != "" {
		if v.Time, err = strconv.ParseFloat(raw, 64); err != nil {
			return nil, badRequest("bad time=%q: %v", raw, err)
		}
	}
	return s.answer(q, v)
}

func (s *Server) handleClade(q *req) (any, error) {
	names := splitList(q.query.Get("species"))
	if len(names) == 0 {
		return nil, badRequest("species parameter is required")
	}
	return s.answer(q, queryrepo.Clade{Species: names, Tree: q.PathValue("name")})
}

func (s *Server) handleMatch(q *req) (any, error) {
	raw, err := io.ReadAll(q.Body)
	if err != nil {
		return nil, badRequest("reading pattern body: %w", err)
	}
	return s.answer(q, queryrepo.Match{Pattern: string(raw), Tree: q.PathValue("name")})
}

func (s *Server) handleBench(q *req) (any, error) {
	var breq BenchRequest
	if err := json.NewDecoder(q.Body).Decode(&breq); err != nil {
		return nil, badRequest("decoding bench request: %w", err)
	}
	v := queryrepo.Bench{Algs: breq.Algorithms, Reps: breq.Replicates, Seed: breq.Seed,
		SeqLength: breq.SeqLength, Sizes: breq.Sizes, Time: -1, Tree: q.PathValue("name")}
	if len(v.Sizes) == 0 {
		v.Sizes = []int{10, 50, 100}
	}
	if breq.Time != nil {
		v.Time = *breq.Time
	}
	return s.runBench(q, v.Defaults(), breq.Parallel)
}

// runBench runs the Benchmark Manager against a stored gold tree. Only
// the export of the gold tree reads the store: the read slot and snapshot
// pins go back as soon as it returns, so a long run holds neither the MVCC
// horizon nor, on a follower, replicated applies.
func (s *Server) runBench(q *req, v queryrepo.Bench, parallel int) (any, error) {
	t, err := s.tree(q.sn, v.Tree)
	if err != nil {
		return nil, err
	}
	rep, summary, err := v.Run(q.Context(), t, parallel, q.sn.release)
	if err != nil {
		return nil, err
	}
	s.recordAsync(v, summary)
	return rep.JSON(), nil
}

// --- species handlers ------------------------------------------------------

func (s *Server) handleSpeciesPut(q *req) (any, error) {
	name, sp, kind := q.PathValue("name"), q.PathValue("sp"), q.PathValue("kind")
	data, err := io.ReadAll(q.Body)
	if err != nil {
		return nil, badRequest("reading body: %w", err)
	}
	return nil, q.cc.apply(func() error {
		if err := s.be.Species.Put(name, sp, kind, data); err != nil {
			return err
		}
		q.cc.commitAsync()
		return nil
	})
}

func (s *Server) handleSpeciesGet(q *req) (any, error) {
	name := q.PathValue("name")
	view := species.ViewOnShards(q.sn.pin(s.be.Router.Place(name)), s.be.Router)
	data, err := view.Get(name, q.PathValue("sp"), q.PathValue("kind"))
	if err != nil {
		return nil, err
	}
	return rawBody{"application/octet-stream", string(data)}, nil
}

func (s *Server) handleSpeciesDelete(q *req) (any, error) {
	name, sp, kind := q.PathValue("name"), q.PathValue("sp"), q.PathValue("kind")
	return nil, q.cc.apply(func() error {
		ok, err := s.be.Species.Delete(name, sp, kind)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: %s/%s/%s", species.ErrNoData, name, sp, kind)
		}
		q.cc.commitAsync()
		return nil
	})
}

func (s *Server) handleSpeciesList(q *req) (any, error) {
	name := q.PathValue("name")
	view := species.ViewOnShards(q.sn.pin(s.be.Router.Place(name)), s.be.Router)
	recs, err := view.List(name, q.PathValue("sp"))
	if err != nil {
		return nil, err
	}
	resp := SpeciesListResponse{Records: make([]SpeciesRecord, len(recs))}
	for i, rec := range recs {
		resp.Records[i] = SpeciesRecord{Tree: rec.Tree, Species: rec.Species, Kind: rec.Kind, Data: rec.Data}
	}
	return resp, nil
}

// --- history handlers ------------------------------------------------------

func entryJSON(e queryrepo.Entry) HistoryEntry {
	return HistoryEntry{ID: e.ID, Time: e.Time, Kind: e.Kind, Args: e.Args, Summary: e.Summary}
}

// handleHistory lists query-history entries newest first. limit bounds the
// page (default 50) and cursor resumes where the previous page stopped;
// ?kind= filtering is unpaginated (index scan, oldest first), as before.
func (s *Server) handleHistory(q *req) (any, error) {
	view := queryrepo.ViewOnShards(q.sn.pin(-1))
	if kind := q.query.Get("kind"); kind != "" {
		entries, err := view.ByKind(q.Context(), kind)
		if err != nil {
			return nil, err
		}
		return historyJSON(entries, 0), nil
	}
	limit, err := queryInt(q.query, "limit", 50)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, badRequest("bad limit %d: must be >= 0", limit)
	}
	pos, err := decodeCursor(historyCursorKind, q.query.Get("cursor"))
	if err != nil {
		return nil, err
	}
	before := int64(0)
	if pos != "" {
		if before, err = strconv.ParseInt(pos, 10, 64); err != nil {
			return nil, badRequest("bad cursor position %q", pos)
		}
	}
	entries, next, err := view.HistoryPage(q.Context(), before, limit)
	if err != nil {
		return nil, err
	}
	return historyJSON(entries, next), nil
}

func historyJSON(entries []queryrepo.Entry, next int64) HistoryResponse {
	resp := HistoryResponse{Entries: make([]HistoryEntry, len(entries))}
	for i, e := range entries {
		resp.Entries[i] = entryJSON(e)
	}
	if next > 0 {
		resp.NextCursor = encodeCursor(historyCursorKind, strconv.FormatInt(next, 10))
	}
	return resp
}

// historyEntry reads the entry the request's {id} names.
func (s *Server) historyEntry(q *req) (queryrepo.Entry, error) {
	id, err := strconv.ParseInt(q.PathValue("id"), 10, 64)
	if err != nil {
		return queryrepo.Entry{}, badRequest("bad history id %q", q.PathValue("id"))
	}
	return queryrepo.ViewOnShards(q.sn.pin(-1)).Get(id)
}

func (s *Server) handleHistoryGet(q *req) (any, error) {
	e, err := s.historyEntry(q)
	if err != nil {
		return nil, err
	}
	return entryJSON(e), nil
}

// handleRerun reruns a recorded query through its endpoint's core and
// answers that endpoint's body.
func (s *Server) handleRerun(q *req) (any, error) {
	e, err := s.historyEntry(q)
	if err != nil {
		return nil, err
	}
	v, err := e.Query()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return s.answer(q, v)
}

// --- stats handlers ---------------------------------------------------------

func (s *Server) handleStats(*req) (any, error) { return s.snapshot(), nil }

func (s *Server) handleMetrics(*req) (any, error) {
	text := metricsText(s.snapshot(), s.stats.histSnapshots(), s.waitSnapshots())
	return rawBody{"text/plain; version=0.0.4; charset=utf-8", text}, nil
}
