package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHandlerPanicIsRecovered: a handler that panics is answered 500 with
// its request id, counted, and its stack logged; the read slot and the
// snapshot pin it held are back. Once a body has begun there is no answering
// any more, and the connection is cut instead.
func TestHandlerPanicIsRecovered(t *testing.T) {
	s := newWriteTestServer(t, 1)
	var mu sync.Mutex
	var logged []string
	s.cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	s.mount(route{"GET /v1/test/panic", "info", readRoute, func(_ *Server, q *req) (any, error) {
		q.sn.shard(0) // pin, as a real query would have by now
		panic("boom in a handler")
	}})
	s.mount(route{"GET /v1/test/panic-midstream", "export", readRoute, func(_ *Server, q *req) (any, error) {
		q.sn.shard(0)
		q.w.Write([]byte("(a,"))
		panic("boom mid-body")
	}})
	released := func(when string) {
		t.Helper()
		if n, in := len(s.readSem), s.stats.inFlightReads.Load(); n != 0 || in != 0 {
			t.Fatalf("%s: %d read slots held, %d reads in flight", when, n, in)
		}
		if open := s.be.DBs[0].MVCC().OpenSnapshots; open != 0 {
			t.Fatalf("%s: %d snapshots still pinned", when, open)
		}
	}

	rec := serve(s, "GET", "/v1/test/panic", nil)
	rid := rec.Header().Get("X-Request-Id")
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || rid == "" || !strings.Contains(body.Error, rid) {
		t.Fatalf("status %d, X-Request-Id %q, body %+v; want 500 naming the request", rec.Code, rid, body)
	}
	if strings.Contains(body.Error, "boom") {
		t.Fatalf("the panic value leaked to the client: %q", body.Error)
	}
	released("after the panic")
	mu.Lock()
	all := strings.Join(logged, "\n")
	mu.Unlock()
	if !strings.Contains(all, "boom in a handler") || !strings.Contains(all, rid) || !strings.Contains(all, "goroutine ") {
		t.Fatalf("log lacks the panic value, the request id or the stack:\n%s", all)
	}

	func() {
		defer func() {
			if rec := recover(); rec != http.ErrAbortHandler {
				t.Fatalf("a panic mid-body re-raised %v, want http.ErrAbortHandler", rec)
			}
		}()
		serve(s, "GET", "/v1/test/panic-midstream", nil)
	}()
	released("after the mid-body panic")

	if got := s.snapshot().Panics; got != 2 {
		t.Fatalf("stats count %d panics, want 2", got)
	}
	if !strings.Contains(serve(s, "GET", "/v1/stats", nil).Body.String(), `"panics":2`) {
		t.Fatal("/v1/stats lacks \"panics\":2")
	}
	if !strings.Contains(serve(s, "GET", "/metrics", nil).Body.String(), "\ncrimsond_panics_total 2\n") {
		t.Fatal("/metrics lacks crimsond_panics_total 2")
	}
	// The server still serves.
	if rec := serve(s, "GET", "/v1/trees", nil); rec.Code != http.StatusOK {
		t.Fatalf("listing after the panics: %d %s", rec.Code, rec.Body.String())
	}
}

// TestQueuedReadAbortIsClientAbort: a client that gives up while its read
// waits for a slot is a client abort — 499 and aborted_reads — whatever
// kind of result its handler would have returned, not an overload counted
// as a server fault.
func TestQueuedReadAbortIsClientAbort(t *testing.T) {
	s := newWriteTestServer(t, 1)
	for i := 0; i < cap(s.readSem); i++ {
		s.readSem <- struct{}{} // every slot taken
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i, target := range []string{
		"/v1/trees",                  // a JSON value
		"/v1/trees/t/species/s/kind", // a rawBody
		"/v1/trees/t/export",         // streamed
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil).WithContext(gone))
		if rec.Code != statusClientClosedRequest {
			t.Fatalf("%s: status %d (%s), want %d", target, rec.Code, rec.Body.String(), statusClientClosedRequest)
		}
		if got := s.stats.abortedReads.Load(); got != int64(i+1) {
			t.Fatalf("%s: aborted_reads = %d, want %d", target, got, i+1)
		}
	}
	if n, in := len(s.readSem), s.stats.inFlightReads.Load(); n != cap(s.readSem) || in != 0 {
		t.Fatalf("the aborted reads moved the semaphore: %d of %d slots, %d in flight", n, cap(s.readSem), in)
	}
	for i := 0; i < cap(s.readSem); i++ {
		<-s.readSem
	}
	if rec := serve(s, "GET", "/v1/trees", nil); rec.Code != http.StatusOK {
		t.Fatalf("listing once slots are free: %d %s", rec.Code, rec.Body.String())
	}
}
