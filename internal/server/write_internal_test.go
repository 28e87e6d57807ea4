package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/newick"
	"repro/internal/relstore"
	"repro/internal/shard"
	"repro/internal/treegen"
)

// These tests reach into the server for its writer mutexes, which the
// wire-level suite cannot: what a mutation does while another holds, or
// waits for, a shard's mutex.

// newWriteTestServer serves an in-memory repository of the given shard
// count as a bare http.Handler.
func newWriteTestServer(t *testing.T, shards int) *Server {
	t.Helper()
	dbs := make([]*relstore.DB, shards)
	for i := range dbs {
		dbs[i] = relstore.OpenMemDB()
	}
	t.Cleanup(func() { shard.CloseAll(dbs) })
	be, err := NewBackend(dbs)
	if err != nil {
		t.Fatal(err)
	}
	return New(be, nil, Config{})
}

// envShards is CRIMSON_TEST_SHARDS, or 1.
func envShards(t *testing.T) int {
	t.Helper()
	raw := os.Getenv("CRIMSON_TEST_SHARDS")
	if raw == "" {
		return 1
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		t.Fatalf("bad CRIMSON_TEST_SHARDS=%q", raw)
	}
	return n
}

func serve(s *Server, method, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	return rec
}

// nameOnShard returns a tree name with the given prefix that lives on shard
// si.
func nameOnShard(s *Server, prefix string, si int) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("%s%d", prefix, i); s.be.Router.Place(name) == si {
			return name
		}
	}
}

func newickBody(t *testing.T, leaves int, seed int64) string {
	t.Helper()
	tree, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return newick.String(tree)
}

// within fails the test unless done is signalled in time.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// TestSlowUploadDoesNotStallWriters: a load whose body arrives slowly reads
// it before taking its shard's writer mutex, so a species put on the same
// shard returns while the upload is still open.
func TestSlowUploadDoesNotStallWriters(t *testing.T) {
	s := newWriteTestServer(t, envShards(t))
	si := s.be.Router.N() - 1
	slow, other := nameOnShard(s, "slow", si), nameOnShard(s, "other", si)
	body := newickBody(t, 200, 1)

	pr, pw := io.Pipe()
	loaded := make(chan struct{})
	var loadRec *httptest.ResponseRecorder
	go func() {
		defer close(loaded)
		loadRec = serve(s, "POST", "/v1/trees/"+slow, pr)
	}()
	// The handler is reading: a pipe write returns once it has been read.
	if _, err := io.WriteString(pw, body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	put := make(chan struct{})
	var putRec *httptest.ResponseRecorder
	go func() {
		defer close(put)
		putRec = serve(s, "PUT", "/v1/trees/"+other+"/species/sp1/seq:test", strings.NewReader("ACGT"))
	}()
	within(t, put, "a species put on the shard of a load that is still uploading")
	if putRec.Code != http.StatusNoContent {
		t.Fatalf("put during the upload: %d %s", putRec.Code, putRec.Body)
	}
	select {
	case <-loaded:
		t.Fatalf("the load returned before its body ended: %d %s", loadRec.Code, loadRec.Body)
	default:
	}

	if _, err := io.WriteString(pw, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	within(t, loaded, "the load, once its body ended")
	if loadRec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", loadRec.Code, loadRec.Body)
	}
}

// TestOffShardWriteIgnoresShardZero: a load and a delete on shard 2 write
// their history entries on shard 2, so with shard 0's writer mutex held by
// the test both answer 200, and their entries are in /v1/history once the
// mutex is released.
func TestOffShardWriteIgnoresShardZero(t *testing.T) {
	s := newWriteTestServer(t, 4)
	name := nameOnShard(s, "tree", 2)
	s.be.writeMus[0].Lock()
	held := true
	defer func() {
		if held {
			s.be.writeMus[0].Unlock()
		}
	}()

	done := make(chan struct{})
	var load, del *httptest.ResponseRecorder
	go func() {
		defer close(done)
		load = serve(s, "POST", "/v1/trees/"+name, strings.NewReader(newickBody(t, 100, 2)))
		del = serve(s, "DELETE", "/v1/trees/"+name, nil)
	}()
	within(t, done, "a load and a delete on shard 2 while shard 0's mutex was held")
	if load.Code != http.StatusOK || del.Code != http.StatusNoContent {
		t.Fatalf("load: %d %s; delete: %d %s", load.Code, load.Body, del.Code, del.Body)
	}
	s.be.writeMus[0].Unlock()
	held = false

	var hist HistoryResponse
	if err := json.Unmarshal(serve(s, "GET", "/v1/history", nil).Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range hist.Entries {
		kinds = append(kinds, e.Kind)
	}
	if fmt.Sprint(kinds) != "[delete load]" {
		t.Fatalf("history after the load and delete: %v, want [delete load]", kinds)
	}
}

// TestWriteLockWaitIsObserved: time a write spends blocked on its shard's
// writer mutex shows up as the request's write_lock_wait span, in
// /v1/stats (write_waits.lock) and in /metrics
// (crimsond_write_lock_wait_seconds); an uncontended write records nothing.
func TestWriteLockWaitIsObserved(t *testing.T) {
	s := newWriteTestServer(t, envShards(t))
	si := s.be.Router.N() - 1
	body := newickBody(t, 50, 3)
	loads := 0
	load := func() *httptest.ResponseRecorder {
		loads++
		name := nameOnShard(s, fmt.Sprintf("tree%d-", loads), si)
		return serve(s, "POST", "/v1/trees/"+name+"?debug=trace", strings.NewReader(body))
	}
	if rec := load(); rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "write_lock_wait") {
		t.Fatalf("uncontended load: %d %s", rec.Code, rec.Body)
	}
	if n := s.be.lockWait.Snapshot().Count; n != 0 {
		t.Fatalf("%d lock waits observed before any contention", n)
	}

	// Hold the mutex until the load has had time to block on it; should it
	// not have got that far (a loaded machine), go round again.
	var rec *httptest.ResponseRecorder
	for try := 0; s.be.lockWait.Snapshot().Count == 0; try++ {
		if try == 20 {
			t.Fatal("no load ever waited for the held writer mutex")
		}
		s.be.writeMus[si].Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rec = load()
		}()
		time.Sleep(20 * time.Millisecond)
		s.be.writeMus[si].Unlock()
		within(t, done, "a load whose shard mutex was released")
	}
	var resp struct {
		Trace struct {
			Children []struct {
				Name string `json:"name"`
				US   int64  `json:"duration_us"`
			} `json:"children"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %s: %v", rec.Body, err)
	}
	waited := false
	for _, c := range resp.Trace.Children {
		waited = waited || (c.Name == "write_lock_wait" && c.US > 0)
	}
	if !waited {
		t.Fatalf("no write_lock_wait child in the contended load's trace: %s", rec.Body)
	}

	var stats StatsSnapshot
	if err := json.Unmarshal(serve(s, "GET", "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if w := stats.WriteWaits["lock"]; w.Count < 1 || w.P50MS <= 0 {
		t.Fatalf("/v1/stats write_waits.lock = %+v", w)
	}
	metrics := serve(s, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "# TYPE crimsond_write_lock_wait_seconds histogram") ||
		strings.Contains(metrics, "crimsond_write_lock_wait_seconds_count 0\n") {
		t.Fatalf("/metrics lacks an observed crimsond_write_lock_wait_seconds:\n%s", metrics)
	}
}
