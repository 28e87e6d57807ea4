// Tests of the X-Crimson-Min-Epoch fence as an event wait: a fenced read
// sleeps on the follower store's epoch-change signal and the apply that
// publishes its epoch wakes it — once, with no timer in between — and the
// time it slept is attributed (span, histogram, counters).
package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/treegen"
)

// fencedInfo issues GET /v1/trees/{tree}?debug=trace against base fenced
// at minEpoch and returns the status, the response's epoch vector and how
// long the request's fence_wait span lasted (zero when it has none: the
// epoch was already there).
func fencedInfo(ctx context.Context, base, tree, minEpoch string) (status int, epochs string, fenceWait time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/trees/"+tree+"?debug=trace", nil)
	if err != nil {
		return 0, "", 0, err
	}
	req.Header.Set("X-Crimson-Min-Epoch", minEpoch)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", 0, err
	}
	var wire struct {
		Trace *client.SpanSummary `json:"trace"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &wire); err != nil {
			return 0, "", 0, fmt.Errorf("decoding %q: %w", body, err)
		}
		if wire.Trace == nil {
			return 0, "", 0, fmt.Errorf("?debug=trace echoed no trace: %s", body)
		}
		for _, ch := range wire.Trace.Children {
			if ch.Name == "fence_wait" {
				fenceWait += time.Duration(ch.DurationUS) * time.Microsecond
			}
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Crimson-Epoch"), fenceWait, nil
}

func epochVector(t *testing.T, cl *client.Client) []uint64 {
	t.Helper()
	st, err := cl.ReplStatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]uint64, len(st.Shards))
	for i, sh := range st.Shards {
		eps[i] = sh.Epoch
	}
	return eps
}

func formatVector(eps []uint64) string {
	parts := make([]string, len(eps))
	for i, e := range eps {
		parts[i] = strconv.FormatUint(e, 10)
	}
	return strings.Join(parts, ",")
}

// awaitCounter polls the process-global engine counters until name has
// grown by delta over base (the test's own observation loop — the code
// under test does not poll).
func awaitCounter(t *testing.T, name string, base, delta int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for crimson.EngineCounters()[name] < base+delta {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d, want %d", name, crimson.EngineCounters()[name], base+delta)
		}
		time.Sleep(time.Millisecond)
	}
}

type fencedResult struct {
	status    int
	epochs    string
	fenceWait time.Duration
	err       error
}

func startFencedInfo(base, tree, minEpoch string) <-chan fencedResult {
	done := make(chan fencedResult, 1)
	go func() {
		var r fencedResult
		r.status, r.epochs, r.fenceWait, r.err = fencedInfo(context.Background(), base, tree, minEpoch)
		done <- r
	}()
	return done
}

// TestFenceWakesOnceOnTheApply is the deterministic counter gate: a fenced
// read held 50 ms with nothing applied is not woken at all, and the one
// apply that publishes its epoch wakes it exactly once (a 5 ms ticker
// would have fired ten times). The wait shows up where waits are
// attributed: the request's fence_wait span, the fence histogram in
// /v1/stats and /metrics, the repl_fence_* engine counters.
func TestFenceWakesOnceOnTheApply(t *testing.T) {
	pcl, fcl := startReplicaPairClients(t, 1)
	ctx := context.Background()
	gold := yule(t, 60, 5)
	if _, err := pcl.LoadTreeCtx(ctx, "fw", 0, gold); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pcl, fcl)
	want := epochVector(t, fcl)
	want[0]++

	before := crimson.EngineCounters()
	hist := obs.ReplFenceWait.Snapshot()
	done := startFencedInfo(fcl.BaseURL(), "fw", formatVector(want))
	awaitCounter(t, "repl_fence_waits", before["repl_fence_waits"], 1)
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("fenced read returned with nothing applied: %+v", r)
	default:
	}
	if n := crimson.EngineCounters()["repl_fence_wakeups"] - before["repl_fence_wakeups"]; n != 0 {
		t.Fatalf("%d wake-ups while the store idled, want 0", n)
	}

	if err := pcl.PutSpeciesDataCtx(ctx, "fw", gold.LeafNames()[0], "seq:test", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("fenced read after the apply: HTTP %d, err %v", r.status, r.err)
	}
	if got, err := strconv.ParseUint(r.epochs, 10, 64); err != nil || got < want[0] {
		t.Fatalf("answered at epoch %q, fenced at %d", r.epochs, want[0])
	}
	if r.fenceWait < 50*time.Millisecond {
		t.Fatalf("fence_wait span %v for a read held at least 50ms", r.fenceWait)
	}
	after := crimson.EngineCounters()
	for name, delta := range map[string]int64{"repl_fence_waits": 1, "repl_fence_wakeups": 1, "repl_fence_timeouts": 0} {
		if got := after[name] - before[name]; got != delta {
			t.Errorf("%s moved by %d, want %d", name, got, delta)
		}
	}
	if h := obs.ReplFenceWait.Snapshot(); h.Count != hist.Count+1 || time.Duration(h.SumNS-hist.SumNS) < 50*time.Millisecond {
		t.Errorf("fence histogram: +%d observations, +%v", h.Count-hist.Count, time.Duration(h.SumNS-hist.SumNS))
	}

	// A fence nothing will ever satisfy times out as it always did, and is
	// counted.
	short, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	status, _, _, err := fencedInfo(short, fcl.BaseURL(), "fw", "999999999")
	if err != nil || status != http.StatusConflict {
		t.Fatalf("unreachable fence: HTTP %d, err %v, want 409", status, err)
	}
	if got := crimson.EngineCounters()["repl_fence_timeouts"] - before["repl_fence_timeouts"]; got != 1 {
		t.Errorf("repl_fence_timeouts moved by %d, want 1", got)
	}

	// Both surfaces render it.
	stats, err := fcl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if w := stats.ReplWaits["fence"]; w.Count < 2 || w.P50MS <= 0 {
		t.Errorf("/v1/stats repl_waits.fence = %+v", w)
	}
	for _, name := range []string{"repl_fence_waits", "repl_fence_wakeups", "repl_fence_timeouts"} {
		if stats.Engine[name] < 1 {
			t.Errorf("/v1/stats engine.%s = %d", name, stats.Engine[name])
		}
	}
	text, err := fcl.MetricsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, text)
	for _, name := range []string{"crimsond_engine_repl_fence_waits_total",
		"crimsond_engine_repl_fence_wakeups_total", "crimsond_engine_repl_fence_timeouts_total"} {
		if f := fams[name]; f == nil || f.typ != "counter" || f.samples[0].value < 1 {
			t.Errorf("/metrics %s = %+v", name, f)
		}
	}
	for name, minCount := range map[string]float64{
		"crimsond_repl_fence_wait_seconds": 2, "crimsond_repl_horizon_wait_seconds": 0} {
		f := fams[name]
		if f == nil || f.typ != "histogram" {
			t.Errorf("/metrics %s = %+v", name, f)
			continue
		}
		var last, inf, count float64
		sum := false
		for _, s := range f.samples {
			switch {
			case s.name == name+"_bucket" && s.labels["le"] == "+Inf":
				inf = s.value
			case s.name == name+"_bucket":
				if s.value < last {
					t.Errorf("%s: buckets not monotone", name)
				}
				last = s.value
			case s.name == name+"_sum":
				sum = true
			case s.name == name+"_count":
				count = s.value
			}
		}
		if !sum || inf != count || count < minCount {
			t.Errorf("%s: sum present %v, +Inf %v, count %v (want >= %v)", name, sum, inf, count, minCount)
		}
	}
}

// TestFenceMedianWaitIsTheApplyLag: over 200 write → fenced read rounds on
// a loopback pair, the median time a read spends in its fence is the apply
// lag (about half a millisecond), far under one period of the poll it
// replaces (5 ms: a read that blocked at all waited at least that). The
// bound is loose on purpose — a property, not a benchmark.
func TestFenceMedianWaitIsTheApplyLag(t *testing.T) {
	pcl, fcl := startReplicaPairClients(t, 1)
	ctx := context.Background()
	gold := yule(t, 60, 7)
	if _, err := pcl.LoadTreeCtx(ctx, "med", 0, gold); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pcl, fcl)
	leaves := gold.LeafNames()
	const rounds = 200
	waits := make([]time.Duration, 0, rounds)
	blocked := 0
	for i := 0; i < rounds; i++ {
		if err := pcl.PutSpeciesDataCtx(ctx, "med", leaves[i%len(leaves)], "seq:test", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		status, _, wait, err := fencedInfo(ctx, fcl.BaseURL(), "med", formatVector(pcl.LastEpochs()))
		if err != nil || status != http.StatusOK {
			t.Fatalf("round %d: HTTP %d, err %v", i, status, err)
		}
		if wait > 0 {
			blocked++
		}
		waits = append(waits, wait)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	median := waits[rounds/2]
	t.Logf("fence_wait over %d rounds: %d blocked, median %v, p95 %v, max %v",
		rounds, blocked, median, waits[rounds*95/100], waits[rounds-1])
	if median >= 2500*time.Microsecond {
		t.Fatalf("median fence_wait %v, want < 2.5ms", median)
	}
}

// TestFenceWaitsOnTheLaggingShardOnly: on a 4-shard pair, a vector ahead
// on shard 2 alone holds the read until shard 2 applies — an apply on
// another shard does not release it — and vectors of the wrong length are
// still 400.
func TestFenceWaitsOnTheLaggingShardOnly(t *testing.T) {
	const shards, lagging = 4, 2
	pcl, fcl := startReplicaPairClients(t, shards)
	ctx := context.Background()
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	var onLagging, elsewhere string
	for i := 0; onLagging == "" || elsewhere == ""; i++ {
		name := fmt.Sprintf("tree%d", i)
		if router.Place(name) == lagging {
			onLagging = name
		} else {
			elsewhere = name
		}
	}
	gold := yule(t, 40, 9)
	for _, name := range []string{onLagging, elsewhere} {
		if _, err := pcl.LoadTreeCtx(ctx, name, 0, gold); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, pcl, fcl)
	want := epochVector(t, fcl)
	want[lagging]++

	before := crimson.EngineCounters()["repl_fence_waits"]
	done := startFencedInfo(fcl.BaseURL(), onLagging, formatVector(want))
	awaitCounter(t, "repl_fence_waits", before, 1)
	put := func(tree string) {
		t.Helper()
		if err := pcl.PutSpeciesDataCtx(ctx, tree, gold.LeafNames()[0], "seq:test", []byte(tree)); err != nil {
			t.Fatal(err)
		}
	}
	put(elsewhere)
	waitCaughtUp(t, pcl, fcl)
	select {
	case r := <-done:
		t.Fatalf("an apply on shard %d released a read fenced on shard %d: %+v", router.Place(elsewhere), lagging, r)
	case <-time.After(30 * time.Millisecond):
	}
	put(onLagging)
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("fenced read after shard %d applied: HTTP %d, err %v", lagging, r.status, r.err)
	}
	got := strings.Split(r.epochs, ",")
	if len(got) != shards {
		t.Fatalf("X-Crimson-Epoch %q, want %d entries", r.epochs, shards)
	}
	if e, err := strconv.ParseUint(got[lagging], 10, 64); err != nil || e < want[lagging] {
		t.Fatalf("answered with shard %d at %q, fenced at %d", lagging, got[lagging], want[lagging])
	}
	if status, _, _, err := fencedInfo(ctx, fcl.BaseURL(), onLagging, "1,1"); err != nil || status != http.StatusBadRequest {
		t.Fatalf("2-entry vector on %d shards: HTTP %d, err %v, want 400", shards, status, err)
	}
}

// BenchmarkFencedReadAfterWrite is the read-your-writes round trip of an
// evaluation loop: a species put on the primary, then a tree-info read on
// the follower fenced at the put's epoch. fence_wait_ns/op is the share
// of the round the read spent blocked in its fence.
func BenchmarkFencedReadAfterWrite(b *testing.B) {
	dir := b.TempDir()
	repo, err := crimson.OpenSharded(dir+"/primary", 1)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frepo, fl, err := crimson.OpenFollower(ctx, dir+"/follower", "http://"+srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer frepo.Close()
	defer fl.Stop()
	fsrv := frepo.NewFollowerServer(fl, crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := fsrv.Start(); err != nil {
		b.Fatal(err)
	}
	defer fsrv.Shutdown(context.Background())

	pcl, fcl := client.New("http://"+srv.Addr(), nil), client.New("http://"+fsrv.Addr(), nil)
	gold, err := treegen.Yule(200, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pcl.LoadTreeCtx(ctx, "b", 0, gold); err != nil {
		b.Fatal(err)
	}
	leaves := gold.LeafNames()
	before := obs.ReplFenceWait.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pcl.PutSpeciesDataCtx(ctx, "b", leaves[i%len(leaves)], "seq:bench", []byte(strconv.Itoa(i))); err != nil {
			b.Fatal(err)
		}
		if _, err := fcl.InfoCtx(client.MinEpochContext(ctx, pcl.LastEpochs()), "b"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := obs.ReplFenceWait.Snapshot()
	b.ReportMetric(float64(after.SumNS-before.SumNS)/float64(b.N), "fence_wait_ns/op")
	b.ReportMetric(float64(after.Count-before.Count)/float64(b.N), "fenced_blocked/op")
}
