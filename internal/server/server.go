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
// Each shard is its own storage engine with its own single-writer
// contract, so loads of trees on different shards proceed genuinely in
// parallel.
// Query-history lives on shard 0; read-path records are drained by an
// async recorder goroutine so recording never puts a read behind any
// writer lock. Repeated projections, LCAs, clades and pattern matches are
// served from a bounded LRU result cache keyed by (tree, version), where a
// tree's version is the shard epoch its current incarnation was committed
// at — entries are immutable by construction, since a reload or delete
// moves the version and strands the old keys.
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
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/nexus"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/queryrepo"
	"repro/internal/recon"
	"repro/internal/relstore"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/species"
	"repro/internal/treecmp"
	"repro/internal/treestore"
)

// Backend bundles the repositories the server exposes. DBs holds one
// relational database per shard; the repositories route tree-scoped
// operations with Router (query history lives on shard 0). A nil Router
// with a single database is normalized to the one-shard layout.
type Backend struct {
	DBs     []*relstore.DB
	Router  *shard.Router
	Trees   *treestore.Store
	Species *species.Repo
	Queries *queryrepo.Repo
	// Follower, when set, marks this server as a read-only replica fed
	// by the given apply loops: writes return 403, reads serve at each
	// shard's last applied epoch, and POST /v1/repl/promote flips the
	// process into a writable primary.
	Follower *repl.Follower
}

// Config tunes the server. The zero value is usable.
type Config struct {
	// Addr is the listen address for Start/ListenAndServe
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
	be      Backend
	mux     *http.ServeMux
	stats   *serverStats
	cache   *resultCache
	slogger *slog.Logger // nil unless Config.Logger was set
	reqSeq  atomic.Int64 // request-id sequence

	readSem  chan struct{} // bounds in-flight reads
	writeMus []sync.Mutex  // one writer mutex per shard; mutations lock their tree's shard

	// pubs streams each shard's WAL batches to replication subscribers.
	// Publishers exist on every server (they are inert without
	// subscribers), so any primary can feed followers without restart.
	pubs []*repl.Publisher
	// readOnly is true while this server is an unpromoted follower:
	// writes 403, the result cache and version maps stay cold (epochs
	// move under replication without the write path's invalidation
	// hooks), and reads serve at the last applied epoch.
	readOnly  atomic.Bool
	promoteMu sync.Mutex // serializes POST /v1/repl/promote
	// promoteDegraded is set when a promote attempt failed after the
	// stores were already flipped writable: the server still reports as a
	// follower but nothing is replicating. Surfaced in /v1/repl/status;
	// retrying promote clears it.
	promoteDegraded atomic.Bool
	// streamCtx cancels open replication streams at Shutdown —
	// http.Server.Shutdown waits for active requests, and a stream never
	// ends on its own.
	streamCtx    context.Context
	streamCancel context.CancelFunc

	handleMu sync.Mutex
	handles  map[string]epochHandle // per-tree handles, keyed to the epoch they read
	// vers maps each tree to its version: the shard epoch at which the
	// tree's current incarnation was committed (set by the load path) or
	// first observed (seeded by the read path from a current snapshot).
	// Result-cache keys embed the version, so entries are immutable: a
	// reload or delete moves or removes the version and strands old keys.
	vers map[string]uint64

	recCh     chan histRecord // read-path history records, drained async
	recWG     sync.WaitGroup
	recStart  sync.Once    // lazily spawns recordLoop on the first record
	recMu     sync.RWMutex // guards recCh sends against shutdown close
	recClosed bool

	httpSrv *http.Server
	lnMu    sync.Mutex
	ln      net.Listener
}

// epochHandle is a cached tree handle valid only for requests whose
// snapshot reads the same epoch. The requesting snapshot's pin keeps the
// epoch's pages alive while the handle is in use, so serving a cached
// handle is exactly as safe as opening a fresh one.
type epochHandle struct {
	epoch uint64
	tree  *treestore.Tree
}

// histRecord is one deferred query-history append.
type histRecord struct {
	kind    string
	args    any
	summary string
}

// New builds a server over the backend. Call Start, Serve or
// ListenAndServe to accept connections, or use it directly as an
// http.Handler.
func New(be Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if be.Router == nil {
		r, err := shard.NewRouter(len(be.DBs))
		if err != nil {
			panic("server: backend with no databases: " + err.Error())
		}
		be.Router = r
	}
	// Note: the result cache is built at the configured size even for a
	// follower. It stays naturally unused while readOnly — cache lookups
	// are gated on tree versions (vers), which only the write path seeds —
	// and promote() purges it before the new primary starts writing, so a
	// promoted follower regains caching at full size.
	s := &Server{
		cfg:      cfg,
		be:       be,
		mux:      http.NewServeMux(),
		stats:    &serverStats{start: time.Now()},
		cache:    newResultCache(cfg.ResultCacheSize),
		readSem:  make(chan struct{}, cfg.MaxInFlightReads),
		writeMus: make([]sync.Mutex, len(be.DBs)),
		handles:  make(map[string]epochHandle),
		vers:     make(map[string]uint64),
		recCh:    make(chan histRecord, 256),
	}
	s.slogger = cfg.Logger
	s.streamCtx, s.streamCancel = context.WithCancel(context.Background())
	s.readOnly.Store(be.Follower != nil)
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
// shard 0, where the query history lives. Taking that shard's writer mutex
// keeps history appends (and especially their commits) from interleaving
// with a half-applied load or delete on the same shard; readers themselves
// never wait on it. Commits (which fsync on file-backed stores and publish
// a new epoch) are throttled to once per recCommitBatch records or
// recCommitInterval, whichever comes first, so a steady query stream costs
// at most ~one fsync per second — not one per query. Records not yet
// committed become durable at the next write endpoint's commit or at
// Shutdown.
func (s *Server) recordLoop() {
	defer s.recWG.Done()
	const (
		recCommitBatch    = 64
		recCommitInterval = time.Second
	)
	recordOne := func(rec histRecord) {
		if _, err := s.be.Queries.Record(rec.kind, rec.args, rec.summary); err != nil {
			s.logf("crimsond: recording %s query: %v", rec.kind, err)
		}
	}
	// capture snapshots the pending records' transaction under the shard-0
	// writer mutex; wait awaits its durability after the mutex is released,
	// so the recorder's fsync coalesces with concurrent write endpoints.
	capture := func() *relstore.CommitWaiter { return s.be.DBs[0].CommitAsync() }
	wait := func(w *relstore.CommitWaiter) {
		if w == nil {
			return
		}
		start := time.Now()
		err := w.Wait()
		s.observeCommitWaiter(context.Background(), w, time.Since(start))
		if err != nil {
			s.logf("crimsond: committing history batch: %v", err)
		}
	}
	pending := 0
	lastCommit := time.Now()
	var flush <-chan time.Time // armed while records await commit
	for {
		select {
		case rec, ok := <-s.recCh:
			if !ok {
				if pending > 0 {
					s.writeMus[0].Lock()
					w := capture()
					s.writeMus[0].Unlock()
					wait(w)
				}
				return
			}
			var w *relstore.CommitWaiter
			s.writeMus[0].Lock()
			recordOne(rec)
			pending++
		drain:
			for pending < 4*recCommitBatch {
				select {
				case more, moreOK := <-s.recCh:
					if !moreOK {
						break drain
					}
					recordOne(more)
					pending++
				default:
					break drain
				}
			}
			if pending >= recCommitBatch || time.Since(lastCommit) >= recCommitInterval {
				w = capture()
				pending = 0
				lastCommit = time.Now()
				flush = nil
			} else if flush == nil {
				flush = time.After(recCommitInterval)
			}
			s.writeMus[0].Unlock()
			wait(w)
		case <-flush:
			flush = nil
			if pending > 0 {
				s.writeMus[0].Lock()
				w := capture()
				s.writeMus[0].Unlock()
				pending = 0
				lastCommit = time.Now()
				wait(w)
			}
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

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	return s.httpSrv.Serve(ln)
}

// ListenAndServe listens on Config.Addr and blocks until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listen address ("" before Start/Serve).
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
	// Capture every shard's final transaction first, then wait on all of
	// them together: the shards' WAL fsyncs run concurrently instead of
	// back to back.
	waiters := make([]*relstore.CommitWaiter, len(s.be.DBs))
	for i := range s.be.DBs {
		s.writeMus[i].Lock()
		waiters[i] = s.be.DBs[i].CommitAsync()
		s.writeMus[i].Unlock()
	}
	errs := make([]error, len(waiters))
	var wg sync.WaitGroup
	for i, w := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Wait()
		}()
	}
	wg.Wait()
	for i, cerr := range errs {
		if err == nil && cerr != nil {
			err = fmt.Errorf("committing shard %d: %w", i, cerr)
		}
	}
	return err
}

func (s *Server) snapshot() StatsSnapshot {
	s.handleMu.Lock()
	open := len(s.handles)
	s.handleMu.Unlock()
	st := s.stats.snapshot(s.cache.len(), open)
	st.LoadWorkers = s.cfg.LoadWorkers
	st.Shards = make([]ShardMVCC, len(s.be.DBs))
	for i, db := range s.be.DBs {
		mv := db.MVCC()
		backlog, wal := db.CheckpointBacklog(), db.WALSize()
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
		st.GroupCommit = &GroupCommitStats{
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

// shard pins (once) and returns the snapshot of shard i.
func (sn *reqSnap) shard(i int) *relstore.Snap {
	if sn.sns[i] == nil {
		sn.sns[i] = sn.s.be.DBs[i].Snapshot()
	}
	return sn.sns[i]
}

// forTree returns the pinned snapshot of the shard owning the named tree,
// along with the shard index.
func (sn *reqSnap) forTree(name string) (*relstore.Snap, int) {
	i := sn.s.be.Router.Place(name)
	return sn.shard(i), i
}

// treeSnap pins every shard and returns the merged tree-repository view
// (used by cross-shard reads like the tree listing).
func (sn *reqSnap) treeSnap() *treestore.Snap {
	for i := range sn.sns {
		sn.shard(i)
	}
	return treestore.SnapOnShards(sn.sns, sn.s.be.Router)
}

// treeVer reports the tree's version — the shard epoch its current
// incarnation was committed at — and whether a request whose shard
// snapshot reads epoch ep may use the result cache. A request older than
// the current incarnation must bypass the cache entirely: it sees (and
// must serve) a previous incarnation.
func (s *Server) treeVer(name string, ep uint64) (uint64, bool) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	ver, known := s.vers[name]
	return ver, known && ep >= ver
}

// tree returns a handle on a stored tree as of the request's snapshot,
// reusing the cached handle whenever it reads the same version of the
// tree — tree relations are immutable between loads, so any handle opened
// at or after the version epoch sees identical content, and the request's
// snapshot pin keeps the version's pages alive while the handle is in
// use. On a miss the fresh handle is cached, and trees loaded before the
// server started have their version seeded here — but only from a
// snapshot reading the shard's current published epoch, so a reader
// holding a pre-delete snapshot can never resurrect a dead tree's version
// (dropTree runs strictly after the delete publishes).
func (s *Server) tree(sn *reqSnap, name string) (*treestore.Tree, error) {
	rs, si := sn.forTree(name)
	if s.readOnly.Load() {
		// On a follower, epochs advance under replication without
		// bumpTree/dropTree running, so the handle and version maps
		// would go stale silently. Open fresh against the snapshot;
		// promote purges the maps before re-enabling them.
		return treestore.SnapOn(rs).Tree(name)
	}
	ep := rs.Epoch()
	s.handleMu.Lock()
	h, ok := s.handles[name]
	ver, known := s.vers[name]
	s.handleMu.Unlock()
	if ok && (h.epoch == ep || (known && h.epoch >= ver && ep >= ver)) {
		return h.tree, nil
	}
	t, err := treestore.SnapOn(rs).Tree(name)
	if err != nil {
		return nil, err
	}
	s.handleMu.Lock()
	if _, k := s.vers[name]; !k && s.be.DBs[si].MVCC().Epoch == ep {
		s.vers[name] = ep
	}
	if v, k := s.vers[name]; k && ep >= v {
		if cur, ok := s.handles[name]; !ok || cur.epoch < ep {
			s.handles[name] = epochHandle{epoch: ep, tree: t}
		}
	}
	s.handleMu.Unlock()
	return t, nil
}

// cachePut inserts a computed result under its (tree, version) key. The
// entry is immutable by construction — the key names one incarnation of
// the tree, and the caller proved its snapshot reads that incarnation
// (ep >= ver) — so unrelated commits on the shard are irrelevant and no
// epoch freshness check is needed. The one guard left: the version must
// still be current, so a result computed as a reload or delete lands is
// not inserted (it would be unreachable, but would take LRU room until
// evicted).
func (s *Server) cachePut(name string, ver uint64, key string, val any) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	if v, ok := s.vers[name]; ok && v == ver {
		s.cache.put(key, val)
	}
}

// bumpTree captures shard si's pending transaction — the one that changes
// which incarnation of the tree exists: a load's, or a delete's — and
// installs the captured commit's epoch as the tree's version, dropping the
// handle the previous incarnation left behind; its cached results need no
// dropping, their keys name the old version.
// Both happen under handleMu: a commit may publish the moment it is
// captured (any waiter's group flush can carry it), and a reader of the new
// epoch must not find the old version still installed, or it would be handed
// the old incarnation's handle. The version is the captured epoch, not the
// published one: readers older than it bypass the caches, and no reader
// reaches it before the commit is durable. The caller holds the shard's
// writer mutex.
func (s *Server) bumpTree(cc *commitCollector, name string) uint64 {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	ep := cc.commitAsync(cc.si).Epoch()
	delete(s.handles, name)
	s.vers[name] = ep
	return ep
}

// dropTree forgets the version a delete installed at epoch ep (see
// bumpTree), so the map does not grow with every name ever deleted. It must
// run strictly after the delete has published: an unknown version is
// re-seeded by the next reader of the current epoch, and before the delete
// publishes that reader still sees the tree about to vanish. A reload that
// has installed a newer version since is left alone.
func (s *Server) dropTree(name string, ep uint64) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	if s.vers[name] == ep {
		delete(s.vers, name)
	}
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
// (commitAsync, bumpTree) and nothing that blocks. The wait — every
// captured commit's WAL fsync, then the afterPublish steps — is the write
// pipeline's, after the mutex is released. That window (transaction
// captured, lock released, fsync pending) is what lets concurrent write
// requests coalesce into one WAL flush (group commit), and keeping the
// other two phases out of the mutex is what keeps a writer from queueing
// behind another's upload, parse or disk.
type commitCollector struct {
	s         *Server
	ctx       context.Context
	si        int // the request's shard
	waiters   []*relstore.CommitWaiter
	published []func()
}

// apply runs fn under the request's shard writer mutex.
func (cc *commitCollector) apply(fn func() error) error {
	cc.s.lockShard(cc.ctx, cc.si)
	defer cc.s.writeMus[cc.si].Unlock()
	return fn()
}

// commitAsync captures shard si's pending transaction now; the caller holds
// that shard's writer mutex. Durability is awaited by the pipeline.
func (cc *commitCollector) commitAsync(si int) *relstore.CommitWaiter {
	w := cc.s.be.DBs[si].CommitAsync()
	cc.waiters = append(cc.waiters, w)
	return w
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

// lockShard takes shard i's writer mutex. Time spent blocked on it is the
// request's "write_lock_wait" child span and one observation of the
// write-lock wait histogram; an acquisition that finds the mutex free
// records nothing.
func (s *Server) lockShard(ctx context.Context, i int) {
	mu := &s.writeMus[i]
	if mu.TryLock() {
		return
	}
	start := time.Now()
	mu.Lock()
	d := time.Since(start)
	s.stats.lockWait.Observe(d)
	obs.SpanFrom(ctx).AddTimed("write_lock_wait", d)
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
func queryInt[T int | int64](r *http.Request, key string, def T) (T, error) {
	raw := r.URL.Query().Get(key)
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

// recordWrite appends a mutation's history record on shard 0 and captures
// its commit on cc (awaited by the pipeline after every mutex drops).
// The caller holds its shard's (cc.si's) writer mutex; when the history shard is a
// different one, its mutex is taken here — capturing a commit on a shard
// requires its writer lock, or a concurrent history commit could capture
// another load's half-applied tables. Lock order is safe: shard 0's mutex
// is only ever acquired bare or after another shard's, never the other way.
func (s *Server) recordWrite(cc *commitCollector, kind string, args any, summary string) error {
	if cc.si != 0 {
		s.lockShard(cc.ctx, 0)
		defer s.writeMus[0].Unlock()
	}
	if _, err := s.be.Queries.Record(kind, args, summary); err != nil {
		s.logf("crimsond: recording %s query: %v", kind, err)
	}
	cc.commitAsync(0)
	return nil
}

// recordAsync enqueues a read-path history record for the recorder
// goroutine. Read handlers must never touch the write path themselves — a
// bulk load in flight would stall them — so the append happens later,
// off the request's latency path. A full queue drops the record (counted
// in stats) rather than block a reader. The recorder goroutine spawns
// lazily on the first record, so a Server used as a bare http.Handler
// and never queried leaks nothing; once queries have flowed, Shutdown is
// what stops the recorder.
func (s *Server) recordAsync(kind string, args any, summary string) {
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
	case s.recCh <- histRecord{kind: kind, args: args, summary: summary}:
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
	limit, err := queryInt(q.Request, "limit", 0)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, badRequest("bad limit %d: must be >= 0", limit)
	}
	after, err := decodeCursor(treeCursorKind, q.URL.Query().Get("cursor"))
	if err != nil {
		return nil, err
	}
	infos, next, err := q.sn.treeSnap().TreesPage(q.Context(), after, limit)
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
	f, err := queryInt(q.Request, "f", core.DefaultFanout)
	if err != nil {
		return nil, err
	}
	format := q.URL.Query().Get("format")
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
			return nil, badRequest("reading body: %v", err)
		}
		if t, err = newick.ParseWorkers(raw.String(), s.cfg.LoadWorkers); err != nil {
			return nil, err
		}
	case "nexus":
		doc, err := nexus.Parse(q.Body)
		if err != nil {
			return nil, badRequest("parsing NEXUS: %v", err)
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

	resp := LoadResponse{Tree: infoJSON(p.Info())}
	err = cc.apply(func() error {
		if err := p.Apply(); err != nil {
			return err
		}
		if chars != nil {
			for _, taxon := range chars.Order {
				if err := s.be.Species.Put(name, taxon, "seq:nexus", []byte(chars.Seqs[taxon])); err != nil {
					// Compensate: nothing of this load has been captured
					// yet, so taking it back out of the working state means
					// no commit ever publishes half of it.
					if derr := s.be.Trees.Drop(name); derr != nil {
						s.logf("crimsond: rolling back partial load of %s: %v", name, derr)
					}
					if _, derr := s.be.Species.DeleteTree(name); derr != nil {
						s.logf("crimsond: rolling back sequences of %s: %v", name, derr)
					}
					return err
				}
			}
			resp.Sequences = len(chars.Order)
		}
		// One commit carries the tree and its sequences (they share the
		// shard); its epoch is the new incarnation's version.
		s.bumpTree(cc, name)
		return s.recordWrite(cc, "load",
			map[string]any{"tree": name, "f": f, "nodes": resp.Tree.Nodes},
			fmt.Sprintf("loaded %d nodes", resp.Tree.Nodes))
	})
	if err != nil {
		return nil, err
	}
	cc.afterPublish(p.Committed)
	s.stats.countLoad(parseNS, metrics)
	if sp := obs.SpanFrom(q.Context()); sp != nil {
		sp.AddTimed("parse", time.Duration(parseNS))
		sp.AddTimed("index", time.Duration(metrics.IndexNS))
		sp.AddTimed("stage", time.Duration(metrics.StageNS))
		sp.AddTimed("insert", time.Duration(metrics.InsertNS))
	}
	return resp, nil
}

func (s *Server) handleDelete(q *req) (any, error) {
	name, cc := q.PathValue("name"), q.cc
	return nil, cc.apply(func() error {
		if err := s.be.Trees.Drop(name); err != nil {
			return err
		}
		// From the delete's epoch on the name has no incarnation: install
		// that as its version now, atomically with the capture and before
		// anything fallible runs, or a failed species cleanup would leave
		// the caches serving a tree whose relations are gone. The entry
		// itself goes once the delete has published.
		ep := s.bumpTree(cc, name)
		cc.afterPublish(func() { s.dropTree(name, ep) })
		if _, err := s.be.Species.DeleteTree(name); err != nil {
			return err
		}
		cc.commitAsync(cc.si)
		return s.recordWrite(cc, "delete", map[string]any{"tree": name}, "deleted")
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

// cachedQuery answers a cacheable query (project, lca, clade, match) on
// the named tree: from the result cache under (tree, version, op, key)
// when the request's snapshot reads the tree's current incarnation, else
// by running compute on the tree's handle and caching what it answers.
// compute runs only on a miss, so it is where a query records its history.
func (s *Server) cachedQuery(q *req, name, op string, key []string, compute func(t *treestore.Tree) (cacheable, error)) (any, error) {
	rs, _ := q.sn.forTree(name)
	ver, useCache := s.treeVer(name, rs.Epoch())
	var k string
	if useCache {
		k = cacheKey(name, ver, op, key...)
		if v, ok := s.cache.get(k); ok {
			s.stats.cacheHits.Add(1)
			return v.(cacheable).asHit(), nil
		}
	}
	s.stats.cacheMisses.Add(1)
	t, err := s.tree(q.sn, name)
	if err != nil {
		return nil, err
	}
	resp, err := compute(t)
	if err != nil {
		return nil, err
	}
	if useCache {
		s.cachePut(name, ver, k, resp)
	}
	return resp, nil
}

func (s *Server) handleProject(q *req) (any, error) {
	name := q.PathValue("name")
	names := splitList(q.URL.Query().Get("species"))
	if len(names) == 0 {
		return nil, badRequest("species parameter is required")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return s.cachedQuery(q, name, "project", sorted, func(t *treestore.Tree) (cacheable, error) {
		projected, err := t.ProjectNamesCtx(q.Context(), names)
		if err != nil {
			return nil, err
		}
		resp := ProjectResponse{Newick: newick.String(projected), Leaves: projected.NumLeaves()}
		s.recordAsync("project", map[string]any{"tree": name, "species": names}, resp.Newick)
		return resp, nil
	})
}

func (s *Server) handleLCA(q *req) (any, error) {
	name := q.PathValue("name")
	a, b := q.URL.Query().Get("a"), q.URL.Query().Get("b")
	if a == "" || b == "" {
		return nil, badRequest("a and b parameters are required")
	}
	ka, kb := a, b
	if ka > kb {
		ka, kb = kb, ka // LCA is symmetric; canonicalize the key
	}
	return s.cachedQuery(q, name, "lca", []string{ka, kb}, func(t *treestore.Tree) (cacheable, error) {
		row, err := t.LCANamesCtx(q.Context(), a, b)
		if err != nil {
			return nil, err
		}
		s.recordAsync("lca", map[string]any{"tree": name, "a": a, "b": b}, fmt.Sprintf("node %d", row.ID))
		return LCAResponse{Node: nodeJSON(row)}, nil
	})
}

func (s *Server) handleSample(q *req) (any, error) {
	name := q.PathValue("name")
	k, err := queryInt(q.Request, "k", 10)
	if err != nil {
		return nil, err
	}
	seed, err := queryInt(q.Request, "seed", int64(1))
	if err != nil {
		return nil, err
	}
	t, err := s.tree(q.sn, name)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []treestore.Node
	timeRaw := q.URL.Query().Get("time")
	timeArg := -1.0
	if timeRaw != "" {
		if timeArg, err = strconv.ParseFloat(timeRaw, 64); err != nil {
			return nil, badRequest("bad time=%q: %v", timeRaw, err)
		}
		rows, err = t.SampleWithTimeCtx(q.Context(), timeArg, k, rng)
	} else {
		rows, err = t.SampleUniformCtx(q.Context(), k, rng)
	}
	if err != nil {
		return nil, err
	}
	resp := SampleResponse{Species: make([]string, len(rows))}
	for i, n := range rows {
		resp.Species[i] = n.Name
	}
	sort.Strings(resp.Species)
	s.recordAsync("sample", map[string]any{"tree": name, "k": k, "time": timeArg, "seed": seed},
		strings.Join(resp.Species, " "))
	return resp, nil
}

func (s *Server) handleClade(q *req) (any, error) {
	name := q.PathValue("name")
	names := splitList(q.URL.Query().Get("species"))
	if len(names) == 0 {
		return nil, badRequest("species parameter is required")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return s.cachedQuery(q, name, "clade", sorted, func(t *treestore.Tree) (cacheable, error) {
		clade, err := t.CladeNamesCtx(q.Context(), names)
		if err != nil {
			return nil, err
		}
		resp := CladeResponse{Root: nodeJSON(clade[0]), Nodes: len(clade)}
		for _, n := range clade {
			if n.Leaf {
				resp.Leaves++
				resp.Species = append(resp.Species, n.Name)
			}
		}
		sort.Strings(resp.Species)
		s.recordAsync("clade", map[string]any{"tree": name, "species": names},
			fmt.Sprintf("%d nodes", resp.Nodes))
		return resp, nil
	})
}

func (s *Server) handleMatch(q *req) (any, error) {
	name := q.PathValue("name")
	raw, err := io.ReadAll(q.Body)
	if err != nil {
		return nil, badRequest("reading pattern body: %v", err)
	}
	pattern, err := newick.Parse(string(raw))
	if err != nil {
		return nil, err
	}
	canonical := newick.String(pattern)
	return s.cachedQuery(q, name, "match", []string{canonical}, func(t *treestore.Tree) (cacheable, error) {
		projected, err := t.ProjectNamesCtx(q.Context(), pattern.LeafNames())
		if err != nil {
			return nil, err
		}
		m, err := treecmp.Score(projected, pattern)
		if err != nil {
			return nil, err
		}
		s.recordAsync("match", map[string]any{"tree": name, "pattern": canonical},
			fmt.Sprintf("RF=%d", m.RF))
		return MatchResponse{Exact: m.Exact, RF: m.RF, NormRF: m.Normalized, Projected: newick.String(projected)}, nil
	})
}

// handleBench runs the Benchmark Manager against a stored gold tree. Only
// the export of the gold tree reads the store: the read slot and snapshot
// pins go back as soon as it returns, so a long run holds neither the MVCC
// horizon nor, on a follower, replicated applies.
func (s *Server) handleBench(q *req) (any, error) {
	name := q.PathValue("name")
	var breq BenchRequest
	if err := json.NewDecoder(q.Body).Decode(&breq); err != nil {
		return nil, badRequest("decoding bench request: %v", err)
	}
	t, err := s.tree(q.sn, name)
	if err != nil {
		return nil, err
	}
	gold, err := t.ExportCtx(q.Context())
	if err != nil {
		return nil, err
	}
	q.sn.release()
	cfg := benchmark.Config{
		Gold:        gold,
		SeqLength:   breq.SeqLength,
		SampleSizes: breq.Sizes,
		Replicates:  breq.Replicates,
		Seed:        breq.Seed,
		Parallel:    breq.Parallel,
	}
	if len(cfg.SampleSizes) == 0 {
		cfg.SampleSizes = []int{10, 50, 100}
	}
	if cfg.Algorithms, cfg.SeqAlgorithms, err = recon.ByNames(breq.Algorithms, breq.Seed); err != nil {
		return nil, badRequest("%v", err)
	}
	if breq.Time != nil {
		cfg.Method = benchmark.TimeConstrained
		cfg.Time = *breq.Time
	}
	rep, err := benchmark.Run(cfg)
	if err != nil {
		return nil, err
	}
	s.recordAsync("bench", map[string]any{"tree": name, "sizes": cfg.SampleSizes,
		"reps": cfg.Replicates, "algs": breq.Algorithms}, "benchmark complete")
	return rep.JSON(), nil
}

// --- species handlers ------------------------------------------------------

func (s *Server) handleSpeciesPut(q *req) (any, error) {
	name, sp, kind := q.PathValue("name"), q.PathValue("sp"), q.PathValue("kind")
	data, err := io.ReadAll(q.Body)
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	return nil, q.cc.apply(func() error {
		if err := s.be.Species.Put(name, sp, kind, data); err != nil {
			return err
		}
		q.cc.commitAsync(q.cc.si)
		return nil
	})
}

func (s *Server) handleSpeciesGet(q *req) (any, error) {
	rs, _ := q.sn.forTree(q.PathValue("name"))
	data, err := species.ViewOn(rs).Get(q.PathValue("name"), q.PathValue("sp"), q.PathValue("kind"))
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
		q.cc.commitAsync(q.cc.si)
		return nil
	})
}

func (s *Server) handleSpeciesList(q *req) (any, error) {
	rs, _ := q.sn.forTree(q.PathValue("name"))
	recs, err := species.ViewOn(rs).List(q.PathValue("name"), q.PathValue("sp"))
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
	view := queryrepo.ViewOn(q.sn.shard(0)) // history lives on shard 0
	if kind := q.URL.Query().Get("kind"); kind != "" {
		entries, err := view.ByKindCtx(q.Context(), kind)
		if err != nil {
			return nil, err
		}
		return historyJSON(entries, 0), nil
	}
	limit, err := queryInt(q.Request, "limit", 50)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, badRequest("bad limit %d: must be >= 0", limit)
	}
	pos, err := decodeCursor(historyCursorKind, q.URL.Query().Get("cursor"))
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

func (s *Server) handleHistoryGet(q *req) (any, error) {
	id, err := strconv.ParseInt(q.PathValue("id"), 10, 64)
	if err != nil {
		return nil, badRequest("bad history id %q", q.PathValue("id"))
	}
	e, err := queryrepo.ViewOn(q.sn.shard(0)).Get(id)
	if err != nil {
		return nil, err
	}
	return entryJSON(e), nil
}

// --- stats handlers ---------------------------------------------------------

func (s *Server) handleStats(*req) (any, error) { return s.snapshot(), nil }

func (s *Server) handleMetrics(*req) (any, error) {
	text := metricsText(s.snapshot(), s.stats.histSnapshots(), s.stats.waitSnapshots())
	return rawBody{"text/plain; version=0.0.4; charset=utf-8", text}, nil
}
