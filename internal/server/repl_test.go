// Replication end-to-end tests: a file-backed primary crimsond with a
// streaming follower, driven through the typed client — catch-up,
// byte-identical reads from the replica, read-your-writes bounds,
// promote-on-failure, and the crimsond_repl_* metrics surface. The
// startReplicaPair harness here also backs CRIMSON_TEST_REPLICA=1, which
// reruns the whole E2E suite with every eligible read served by the
// follower.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
)

// replicaBarrier is a RoundTripper that stamps the primary's current
// committed epoch vector as X-Crimson-Min-Epoch on every follower-bound
// request that doesn't carry one. Suite tests freely mix in-process
// writes (which the client never observes) with client reads; the
// barrier linearizes those reads against the primary's state at request
// time — the follower waits for its apply loop, or the client fails over
// to the primary on 409. Either way the read is current.
type replicaBarrier struct {
	repo  *crimson.Repository
	fhost string
}

func (rb *replicaBarrier) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == rb.fhost && req.Header.Get("X-Crimson-Min-Epoch") == "" {
		var sb strings.Builder
		for i, mv := range rb.repo.MVCCShards() {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", mv.Epoch)
		}
		req.Header.Set("X-Crimson-Min-Epoch", sb.String())
	}
	return http.DefaultTransport.RoundTrip(req)
}

// startReplicaPair serves a file-backed repository plus a follower
// streaming its WAL and returns the primary repository and a client whose
// data reads go to the follower (behind the epoch barrier) with the
// primary as failover.
func startReplicaPair(t *testing.T, cfg crimson.ServerConfig, shards int) (*crimson.Repository, *client.Client) {
	t.Helper()
	dir := t.TempDir()
	repo, err := crimson.OpenSharded(filepath.Join(dir, "primary"), shards)
	if err != nil {
		t.Fatalf("opening primary: %v", err)
	}
	srv := repo.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	purl := "http://" + srv.Addr()

	fctx, fcancel := context.WithCancel(context.Background())
	frepo, fl, err := crimson.OpenFollower(fctx, filepath.Join(dir, "follower"), purl)
	if err != nil {
		fcancel()
		srv.Shutdown(context.Background())
		repo.Close()
		t.Fatalf("opening follower: %v", err)
	}
	fsrv := frepo.NewFollowerServer(fl, cfg)
	if err := fsrv.Start(); err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	t.Cleanup(func() {
		if err := fsrv.Shutdown(context.Background()); err != nil {
			t.Errorf("follower shutdown: %v", err)
		}
		fl.Stop()
		fcancel()
		frepo.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("primary shutdown: %v", err)
		}
		repo.Close()
	})
	hc := &http.Client{Transport: &replicaBarrier{repo: repo, fhost: fsrv.Addr()}}
	return repo, client.New(purl, hc, client.WithReplicas("http://"+fsrv.Addr()))
}

// startReplicaPairClients is the explicit-role variant for the dedicated
// replication tests: separate plain clients for the primary and follower
// endpoints, plus the follower handle.
func startReplicaPairClients(t *testing.T, shards int) (pcl, fcl *client.Client) {
	t.Helper()
	dir := t.TempDir()
	repo, err := crimson.OpenSharded(filepath.Join(dir, "primary"), shards)
	if err != nil {
		t.Fatalf("opening primary: %v", err)
	}
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	purl := "http://" + srv.Addr()

	fctx, fcancel := context.WithCancel(context.Background())
	frepo, fl, err := crimson.OpenFollower(fctx, filepath.Join(dir, "follower"), purl)
	if err != nil {
		fcancel()
		srv.Shutdown(context.Background())
		repo.Close()
		t.Fatalf("opening follower: %v", err)
	}
	fsrv := frepo.NewFollowerServer(fl, crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := fsrv.Start(); err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	t.Cleanup(func() {
		fsrv.Shutdown(context.Background())
		fl.Stop()
		fcancel()
		frepo.Close()
		srv.Shutdown(context.Background())
		repo.Close()
	})
	return client.New(purl, nil), client.New("http://"+fsrv.Addr(), nil)
}

// waitCaughtUp polls the follower's replication status until every shard
// is connected, synced, and at or beyond the primary's current epochs.
func waitCaughtUp(t *testing.T, pcl, fcl *client.Client) {
	t.Helper()
	ctx := context.Background()
	pst, err := pcl.ReplStatusCtx(ctx)
	if err != nil {
		t.Fatalf("primary repl status: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		fst, err := fcl.ReplStatusCtx(ctx)
		if err != nil {
			t.Fatalf("follower repl status: %v", err)
		}
		ok := len(fst.Shards) == len(pst.Shards)
		for i, sh := range fst.Shards {
			if !sh.Connected || !sh.Synced || sh.Epoch < pst.Shards[i].Epoch {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: follower=%+v primary=%+v", fst, pst)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaEndToEnd is the replication acceptance path: a 10k-leaf tree
// loaded over HTTP must export byte-identically from the follower, status
// and stats must report both roles, the repl metrics families must parse
// strictly on both servers, and the follower must reject writes.
func TestReplicaEndToEnd(t *testing.T) {
	pcl, fcl := startReplicaPairClients(t, testShards(t))
	ctx := context.Background()
	gold := yule(t, 10000, 17)
	if _, err := pcl.LoadTreeCtx(ctx, "gold", 0, gold); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := pcl.PutSpeciesDataCtx(ctx, "gold", gold.LeafNames()[0], "seq:test", []byte("ACGTACGT")); err != nil {
		t.Fatalf("species put: %v", err)
	}
	waitCaughtUp(t, pcl, fcl)

	// Byte-identical export through both roles.
	export := func(cl *client.Client, who string) []byte {
		rc, err := cl.ExportReader(ctx, "gold")
		if err != nil {
			t.Fatalf("%s export: %v", who, err)
		}
		defer rc.Close()
		body, err := io.ReadAll(rc)
		if err != nil {
			t.Fatalf("%s export read: %v", who, err)
		}
		return body
	}
	pBody, fBody := export(pcl, "primary"), export(fcl, "follower")
	if len(pBody) == 0 || !bytes.Equal(pBody, fBody) {
		t.Fatalf("follower export differs from primary (%d vs %d bytes)", len(fBody), len(pBody))
	}

	// Roles via /v1/repl/status and /v1/stats.
	pst, err := pcl.ReplStatusCtx(ctx)
	if err != nil || pst.Role != "primary" {
		t.Fatalf("primary role = %q (err %v), want primary", pst.Role, err)
	}
	for _, sh := range pst.Shards {
		if sh.Subscribers < 1 {
			t.Fatalf("primary shard %d has %d subscribers, want >= 1", sh.Shard, sh.Subscribers)
		}
	}
	fst, err := fcl.ReplStatusCtx(ctx)
	if err != nil || fst.Role != "follower" {
		t.Fatalf("follower role = %q (err %v), want follower", fst.Role, err)
	}
	stats, err := fcl.StatsCtx(ctx)
	if err != nil {
		t.Fatalf("follower stats: %v", err)
	}
	if stats.Repl == nil || stats.Repl.Role != "follower" {
		t.Fatalf("follower /v1/stats repl block = %+v, want follower role", stats.Repl)
	}

	// The repl metrics families must survive the strict parser on both
	// servers, with role-appropriate values.
	for _, tc := range []struct {
		cl      *client.Client
		who     string
		primary float64
	}{{pcl, "primary", 1}, {fcl, "follower", 0}} {
		text, err := tc.cl.MetricsCtx(ctx)
		if err != nil {
			t.Fatalf("%s metrics: %v", tc.who, err)
		}
		fams := parseProm(t, text)
		for _, want := range []string{
			"crimsond_repl_primary", "crimsond_repl_epoch", "crimsond_repl_subscribers",
			"crimsond_repl_primary_epoch", "crimsond_repl_lag_epochs",
			"crimsond_repl_connected", "crimsond_repl_synced", "crimsond_repl_last_contact_ms",
		} {
			if fams[want] == nil {
				t.Errorf("%s /metrics missing family %s", tc.who, want)
			}
		}
		role := fams["crimsond_repl_primary"]
		if role == nil || len(role.samples) != 1 || role.samples[0].value != tc.primary {
			t.Errorf("%s crimsond_repl_primary = %+v, want %v", tc.who, role, tc.primary)
		}
	}

	// Writes against the follower must be refused with 403.
	err = fcl.PutSpeciesDataCtx(ctx, "gold", gold.LeafNames()[1], "seq:test", []byte("TTTT"))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden {
		t.Fatalf("follower write = %v, want HTTP 403", err)
	}
}

// TestReplicaReadYourWrites drives 8 concurrent writers against the
// primary, each read back through a replica-routed read-your-writes
// client: every read must return the write's value (served by the
// follower once its apply loop reaches the write's epoch, or by primary
// failover after the 2s bound — the lag path the ISSUE bounds).
func TestReplicaReadYourWrites(t *testing.T) {
	pcl, fcl := startReplicaPairClients(t, testShards(t))
	ctx := context.Background()
	gold := yule(t, 400, 23)
	if _, err := pcl.LoadTreeCtx(ctx, "rw", 0, gold); err != nil {
		t.Fatalf("load: %v", err)
	}
	waitCaughtUp(t, pcl, fcl)

	// One client with replica routing + RYW, shared by all writers, like a
	// real application would hold.
	cl := client.New(pcl.BaseURL(), nil,
		client.WithReplicas(fcl.BaseURL()), client.WithReadYourWrites())
	var wg sync.WaitGroup
	errc := make(chan error, 8*4)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				sp := fmt.Sprintf("ryw-w%d-%d", w, i)
				want := []byte("v:" + sp)
				if err := cl.PutSpeciesDataCtx(ctx, "rw", sp, "seq:test", want); err != nil {
					errc <- fmt.Errorf("put %s: %w", sp, err)
					return
				}
				got, err := cl.SpeciesDataCtx(ctx, "rw", sp, "seq:test")
				if err != nil {
					errc <- fmt.Errorf("read %s: %w", sp, err)
					return
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("read %s = %q, want %q", sp, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The follower really participated: it applied batches beyond the
	// initial catch-up while the churn ran.
	waitCaughtUp(t, pcl, fcl)
	fst, err := fcl.ReplStatusCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var applied uint64
	for _, sh := range fst.Shards {
		applied += sh.Epoch
	}
	if applied == 0 {
		t.Fatal("follower applied nothing during the churn")
	}
}

// TestReplicaPromote fills a primary, waits for the follower, then
// promotes the follower over HTTP: it must flip to a writable primary
// with every replicated commit intact, refuse a second promote with 409,
// and accept new writes.
func TestReplicaPromote(t *testing.T) {
	pcl, fcl := startReplicaPairClients(t, testShards(t))
	ctx := context.Background()
	gold := yule(t, 600, 31)
	if _, err := pcl.LoadTreeCtx(ctx, "p", 0, gold); err != nil {
		t.Fatalf("load: %v", err)
	}
	leaves := gold.LeafNames()
	for i := 0; i < 5; i++ {
		if err := pcl.PutSpeciesDataCtx(ctx, "p", leaves[i], "seq:test", []byte("pre-"+leaves[i])); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if _, err := pcl.LoadTreeCtx(ctx, "d", 0, yule(t, 80, 32)); err != nil {
		t.Fatalf("load: %v", err)
	}
	waitCaughtUp(t, pcl, fcl)
	pst, err := pcl.ReplStatusCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	fst, err := fcl.ReplStatusCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Degraded {
		t.Fatal("healthy follower reports degraded")
	}

	st, err := fcl.PromoteCtx(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != "primary" {
		t.Fatalf("post-promote role = %q, want primary", st.Role)
	}
	if st.Degraded {
		t.Fatal("successful promote reports degraded")
	}
	// No committed epoch lost: the promoted server is at or beyond every
	// epoch the old primary had published when we stopped writing.
	for i, sh := range st.Shards {
		if sh.Epoch < pst.Shards[i].Epoch {
			t.Fatalf("promoted shard %d at epoch %d, below old primary's %d", i, sh.Epoch, pst.Shards[i].Epoch)
		}
	}

	var ae *client.APIError
	if _, err := fcl.PromoteCtx(ctx); !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("second promote = %v, want HTTP 409", err)
	}

	// Replicated state fully intact, and the promoted server takes writes.
	for i := 0; i < 5; i++ {
		got, err := fcl.SpeciesDataCtx(ctx, "p", leaves[i], "seq:test")
		if err != nil || string(got) != "pre-"+leaves[i] {
			t.Fatalf("replicated row %d after promote: %q err=%v", i, got, err)
		}
	}
	if err := fcl.PutSpeciesDataCtx(ctx, "p", "post-promote", "seq:test", []byte("new")); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	got, err := fcl.SpeciesDataCtx(ctx, "p", "post-promote", "seq:test")
	if err != nil || string(got) != "new" {
		t.Fatalf("post-promote write read back %q, err=%v", got, err)
	}
	exp, err := fcl.ExportCtx(ctx, "p")
	if err != nil {
		t.Fatalf("export after promote: %v", err)
	}
	if exp.NumLeaves() != gold.NumLeaves() {
		t.Fatalf("promoted tree has %d leaves, want %d", exp.NumLeaves(), gold.NumLeaves())
	}

	// Every writer takes writes: a load, the delete of a replicated tree,
	// and the history records both leave on their trees' shards.
	if _, err := fcl.LoadTreeCtx(ctx, "q", 0, yule(t, 90, 33)); err != nil {
		t.Fatalf("load after promote: %v", err)
	}
	if err := fcl.DeleteCtx(ctx, "d"); err != nil {
		t.Fatalf("delete of a replicated tree after promote: %v", err)
	}
	if _, err := fcl.InfoCtx(ctx, "d"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("info of the deleted tree = %v, want HTTP 404", err)
	}
	if info, err := fcl.InfoCtx(ctx, "q"); err != nil || info.Leaves != 90 {
		t.Fatalf("tree loaded after promote: %+v err=%v", info, err)
	}
	hist, err := fcl.HistoryCtx(ctx, 0)
	if err != nil {
		t.Fatalf("history after promote: %v", err)
	}
	var loaded, deleted bool
	for _, e := range hist {
		loaded = loaded || e.Kind == "load" && strings.Contains(e.Args, `"tree":"q"`)
		deleted = deleted || e.Kind == "delete" && strings.Contains(e.Args, `"tree":"d"`)
	}
	if !loaded || !deleted {
		t.Fatalf("history after promote records the load %v and the delete %v: %+v", loaded, deleted, hist)
	}

	// The promoted server keeps its result cache: of three identical
	// cacheable queries, at least the last two are hits.
	for i := 0; i < 3; i++ {
		if _, err := fcl.LCACtx(ctx, "p", leaves[0], leaves[1]); err != nil {
			t.Fatalf("post-promote lca %d: %v", i, err)
		}
	}
	stats, err := fcl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 2 {
		t.Fatalf("promoted server result cache scored %d hits, want >= 2", stats.CacheHits)
	}
}

// TestReplicaMinEpochRejections pins the min-epoch request-validation
// surface: a malformed vector is 400, an unreachable epoch far in the
// future is 409 after the wait bound.
func TestReplicaMinEpochRejections(t *testing.T) {
	if os.Getenv("CRIMSON_TEST_REPLICA") == "1" {
		// The barrier transport injects its own min-epoch header on
		// follower requests; exercising handcrafted headers here would
		// race with it for no extra coverage.
		t.Skip("redundant under CRIMSON_TEST_REPLICA")
	}
	pcl, fcl := startReplicaPairClients(t, 1)
	ctx := context.Background()
	if _, err := pcl.LoadTreeCtx(ctx, "me", 0, yule(t, 60, 3)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pcl, fcl)

	get := func(minEpoch string) int {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fcl.BaseURL()+"/v1/trees", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Crimson-Min-Epoch", minEpoch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get("not-a-number"); code != http.StatusBadRequest {
		t.Fatalf("malformed min-epoch: HTTP %d, want 400", code)
	}
	if code := get("999999999"); code != http.StatusConflict {
		t.Fatalf("unreachable min-epoch: HTTP %d, want 409", code)
	}
	if code := get("1"); code != http.StatusOK {
		t.Fatalf("reachable min-epoch: HTTP %d, want 200", code)
	}
}
