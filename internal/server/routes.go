package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/queryrepo"
	"repro/internal/sample"
	"repro/internal/species"
	"repro/internal/storage"
	"repro/internal/treestore"
)

// routeKind is what the pipeline does around a route's handler.
type routeKind int

const (
	// plainRoute runs the handler as is: the stats pages and the
	// replication endpoints (the stream holds its connection open
	// indefinitely and must not take a bounded read slot; promote is a role
	// change, not a data write).
	plainRoute routeKind = iota
	// readRoute waits out the request's X-Crimson-Min-Epoch fence, takes a
	// read slot and hands the handler a lazily pinned snapshot view; it
	// takes no repository lock.
	readRoute
	// writeRoute answers 403 on a follower; otherwise it hands the handler
	// its tree's shard as a commitCollector and, once the handler returns,
	// waits for the commits it captured — outside every mutex, so the next
	// writer's flush can coalesce with them.
	writeRoute
)

// route is one crimsond endpoint.
type route struct {
	pattern string // method and path, as http.ServeMux takes them
	op      string // what its requests are counted, timed and logged as
	kind    routeKind
	handle  func(s *Server, q *req) (any, error)
}

// routes is crimsond's API, one row per endpoint: adding an endpoint is
// adding a row. /healthz and pprof are mounted beside it — they are not
// API requests and are neither counted nor given a request id.
var routes = []route{
	{"GET /v1/stats", "stats", plainRoute, (*Server).handleStats},
	{"GET /metrics", "metrics", plainRoute, (*Server).handleMetrics},

	{"GET /v1/trees", "trees", readRoute, (*Server).handleTrees},
	{"POST /v1/trees/{name}", "load", writeRoute, (*Server).handleLoad},
	{"GET /v1/trees/{name}", "info", readRoute, (*Server).handleInfo},
	{"DELETE /v1/trees/{name}", "delete", writeRoute, (*Server).handleDelete},
	{"GET /v1/trees/{name}/project", "project", readRoute, (*Server).handleProject},
	{"GET /v1/trees/{name}/lca", "lca", readRoute, (*Server).handleLCA},
	{"GET /v1/trees/{name}/sample", "sample", readRoute, (*Server).handleSample},
	{"GET /v1/trees/{name}/clade", "clade", readRoute, (*Server).handleClade},
	{"POST /v1/trees/{name}/match", "match", readRoute, (*Server).handleMatch},
	{"POST /v1/trees/{name}/bench", "bench", readRoute, (*Server).handleBench},
	{"GET /v1/trees/{name}/export", "export", readRoute, (*Server).handleExport},

	{"PUT /v1/trees/{name}/species/{sp}/{kind}", "species_put", writeRoute, (*Server).handleSpeciesPut},
	{"GET /v1/trees/{name}/species/{sp}/{kind}", "species_get", readRoute, (*Server).handleSpeciesGet},
	{"DELETE /v1/trees/{name}/species/{sp}/{kind}", "species_delete", writeRoute, (*Server).handleSpeciesDelete},
	{"GET /v1/trees/{name}/species/{sp}", "species_list", readRoute, (*Server).handleSpeciesList},

	{"GET /v1/history", "history", readRoute, (*Server).handleHistory},
	{"GET /v1/history/{id}", "history_get", readRoute, (*Server).handleHistoryGet},

	{"GET /v1/repl/status", "repl_status", plainRoute, (*Server).handleReplStatus},
	{"GET /v1/repl/stream", "repl_stream", plainRoute, (*Server).handleReplStream},
	{"POST /v1/repl/promote", "repl_promote", plainRoute, (*Server).handleReplPromote},
}

// req is one API request on its way through the pipeline: what its
// handler sees, and its observability state.
type req struct {
	*http.Request
	w  *startedWriter   // the response, for a handler that streams it
	sn *reqSnap         // read routes: the request's snapshot view
	cc *commitCollector // write routes: its shard and captured commits

	st    *opStats
	rid   string
	start time.Time
	root  *obs.Span // nil when this request is not traced
	debug bool      // the client asked for ?debug=trace
}

// A handler returns one of three results: a JSON value (nil answers 204),
// a rawBody, or streamed.
type (
	// rawBody is a response body sent as is, under its content type.
	rawBody struct{ contentType, body string }
	// streamed says the handler wrote the response itself.
	streamed struct{}
)

// mount registers one route on the mux. The route's op slot is resolved
// here, once, so a request counts and times itself without a lookup.
func (s *Server) mount(rt route) {
	st := s.stats.op(rt.op)
	s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
		s.serve(rt, &req{Request: r, w: w.(*startedWriter), st: st}) // ServeHTTP wrapped w
	})
}

// serve is the request pipeline every route runs through: count, request
// id and epoch header, trace and log (beginOp/endOp), the route kind's
// read slot and snapshot or writer plumbing, then the answer.
func (s *Server) serve(rt route, q *req) {
	s.stats.requests.Add(1)
	q.st.requests.Add(1)
	s.beginOp(q)
	var v any
	var err error
	switch rt.kind {
	case readRoute:
		if err = s.awaitMinEpoch(q.Request); err == nil {
			if q.sn, err = s.acquireRead(q.Request); err == nil {
				defer q.sn.release()
				v, err = rt.handle(s, q)
			}
		}
	case writeRoute:
		if s.readOnly.Load() {
			err = &httpErr{status: http.StatusForbidden,
				msg: "this server is a read-only replica; send writes to the primary or promote it"}
			break
		}
		q.cc = &commitCollector{s: s, ctx: q.Context(), si: s.be.Router.Place(q.PathValue("name"))}
		v, err = rt.handle(s, q)
		if werr := q.cc.wait(); werr != nil && err == nil {
			v, err = nil, werr
		}
	default:
		v, err = rt.handle(s, q)
	}
	s.respond(q, v, err, s.endOp(q, err))
}

// respond answers a request from its handler's result. An error becomes a
// JSON error response — 499 when the request's own context ended it — or,
// once the body has begun, a cut connection, so the client sees truncation
// rather than a clean end of body.
func (s *Server) respond(q *req, v any, err error, sum *obs.SpanSummary) {
	w := q.w
	if !w.started {
		// Refresh the epoch header stamped at beginOp: a write has published
		// a new epoch since, and a min-epoch wait may have ridden out applies.
		s.setEpochHeader(w)
	}
	if err != nil {
		status := errStatus(err)
		if abortedByClient(q.Request, err) {
			s.stats.abortedReads.Add(1)
			s.logf("crimsond: %s aborted by client: %v", q.st.name, err)
			status = statusClientClosedRequest
		}
		if w.started {
			s.logf("crimsond: %s stream cut mid-body: %v", q.st.name, err)
			s.stats.errors.Add(1)
			panic(http.ErrAbortHandler)
		}
		s.fail(w, status, err)
		return
	}
	switch v := v.(type) {
	case streamed:
	case rawBody:
		w.Header().Set("Content-Type", v.contentType)
		io.WriteString(w, v.body)
	case nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		if sum != nil {
			v = injectTrace(v, sum)
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// beginOp starts per-request observability. A root span is collected
// when the client asks (?debug=trace) or the server is configured to
// (Trace, or a slow-query threshold that may need the tree); otherwise
// the request runs on the nil-span fast path and only the process-global
// engine counters tick.
func (s *Server) beginOp(q *req) {
	q.start = time.Now()
	q.debug = q.URL.Query().Get("debug") == "trace"
	q.rid = s.nextRequestID()
	q.w.Header().Set("X-Request-Id", q.rid)
	s.setEpochHeader(q.w)
	if q.debug || s.cfg.Trace || s.cfg.SlowQueryMS > 0 {
		q.root = obs.NewRoot(q.st.name)
		q.Request = q.WithContext(obs.ContextWithSpan(q.Context(), q.root))
	}
}

// endOp closes the request's observability: records the op latency
// histogram, ends the span, and emits the slow-query and structured
// request logs. It returns the span summary when ?debug=trace asked for
// it (nil otherwise).
func (s *Server) endOp(q *req, err error) *obs.SpanSummary {
	d := time.Since(q.start)
	q.st.latency.Observe(d)
	q.root.End()
	op, ms := q.st.name, float64(d)/float64(time.Millisecond)
	slow := s.cfg.SlowQueryMS > 0 && d >= time.Duration(s.cfg.SlowQueryMS)*time.Millisecond
	var sum *obs.SpanSummary
	if q.debug || slow {
		sum = q.root.Summary()
	}
	if slow {
		tree, _ := json.Marshal(sum)
		if s.slogger != nil {
			s.slogger.Warn("slow query", "op", op, "req_id", q.rid,
				"duration_ms", ms, "trace", json.RawMessage(tree))
		} else {
			s.logf("crimsond: slow %s req=%s %.1fms trace=%s", op, q.rid, ms, tree)
		}
	} else if s.slogger != nil {
		if err != nil {
			s.slogger.Info("request", "op", op, "req_id", q.rid, "duration_ms", ms, "err", err.Error())
		} else {
			s.slogger.Debug("request", "op", op, "req_id", q.rid, "duration_ms", ms)
		}
	}
	if !q.debug {
		return nil
	}
	return sum
}

// injectTrace embeds the span summary into a JSON-object response body
// under a "trace" key; non-object payloads are wrapped instead.
func injectTrace(v any, sum *obs.SpanSummary) any {
	b, err := json.Marshal(v)
	if err != nil {
		return v
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil || m == nil {
		return map[string]any{"result": json.RawMessage(b), "trace": sum}
	}
	m["trace"] = sum
	return m
}

// statusClientClosedRequest is the non-standard (nginx-convention) status
// for requests whose client went away; the response is almost certainly
// unwritable, but the code keeps logs and tests unambiguous.
const statusClientClosedRequest = 499

// abortedByClient reports whether err means the request's own context
// ended it — the client disconnected or its deadline passed — rather than
// the request failing on its merits.
func abortedByClient(r *http.Request, err error) bool {
	if err == nil || r.Context().Err() == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// startedWriter tracks whether a response has begun, which decides
// whether an error (or a panic) can still become a JSON error response or
// must abort the connection. ServeHTTP wraps every request's writer in one.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (sw *startedWriter) WriteHeader(status int) {
	sw.started = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *startedWriter) Write(p []byte) (int, error) {
	sw.started = true
	return sw.ResponseWriter.Write(p)
}

// Flush and Unwrap keep http.Flusher and http.ResponseController working
// through the wrapper (the replication stream uses both).
func (sw *startedWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *startedWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.stats.errors.Add(1)
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// httpErr carries an explicit status (bad parameters and the like).
type httpErr struct {
	status int
	msg    string
}

func (e *httpErr) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpErr{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errStatus(err error) int {
	var he *httpErr
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, treestore.ErrNoTree), errors.Is(err, treestore.ErrNoNode),
		errors.Is(err, species.ErrNoData), errors.Is(err, queryrepo.ErrNoEntry):
		return http.StatusNotFound
	case errors.Is(err, treestore.ErrTreeExists):
		return http.StatusConflict
	case errors.Is(err, storage.ErrSnapshotInvalidated):
		// A replica apply invalidated the request's snapshot mid-read.
		// 409 is what the client failover path retries against another
		// base (typically the primary).
		return http.StatusConflict
	case errors.Is(err, treestore.ErrBadName), errors.Is(err, treestore.ErrBadSample),
		errors.Is(err, sample.ErrBadCount), errors.Is(err, sample.ErrTooFew), errors.Is(err, sample.ErrEmptyResult),
		errors.Is(err, species.ErrBadKey), errors.Is(err, newick.ErrSyntax):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
