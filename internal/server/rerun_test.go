package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/queryrepo"
)

// TestRerunEveryReadKind records one query of each read kind, reruns each
// with POST /v1/history/{id}/rerun, and checks the rerun answers its
// endpoint's body: the same answer, through the same result cache. The
// entries are recorded in-process before any read runs, so the test runs
// unchanged against a replica pair, whose follower records no reads.
func TestRerunEveryReadKind(t *testing.T) {
	repo, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	gold := yule(t, 200, 5)
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, gold); err != nil {
		t.Fatal(err)
	}
	l := gold.LeafNames()
	pattern := fmt.Sprintf("((%s,%s),%s);", l[0], l[1], l[2])
	lca := queryrepo.LCA{A: l[7], B: l[3], Tree: "gold"}
	project := queryrepo.Project{Species: l[10:16], Tree: "gold"}
	clade := queryrepo.Clade{Species: l[20:23], Tree: "gold"}
	sample := queryrepo.Sample{K: 8, Seed: 4, Time: -1, Tree: "gold"}
	match := queryrepo.Match{Pattern: pattern, Tree: "gold"}
	bench := queryrepo.Bench{Algs: []string{"NJ"}, Reps: 1, Seed: 2, SeqLength: 60, Sizes: []int{6}, Time: -1, Tree: "gold"}
	ids := map[string]int64{}
	for _, v := range []queryrepo.Query{lca, project, clade, sample, match, bench} {
		e, err := repo.Record(v, "")
		if err != nil {
			t.Fatal(err)
		}
		ids[v.Kind()] = e.ID
	}

	wantLCA, err := cl.LCACtx(ctx, "gold", lca.A, lca.B)
	if err != nil {
		t.Fatal(err)
	}
	rerunMatches(t, cl, "lca", ids["lca"], wantLCA, func(r *client.LCAResponse) { r.Cached = false })
	wantProject, err := cl.ProjectCtx(ctx, "gold", project.Species)
	if err != nil {
		t.Fatal(err)
	}
	rerunMatches(t, cl, "project", ids["project"], wantProject, func(r *client.ProjectResponse) { r.Cached = false })
	wantClade, err := cl.CladeCtx(ctx, "gold", clade.Species)
	if err != nil {
		t.Fatal(err)
	}
	rerunMatches(t, cl, "clade", ids["clade"], wantClade, func(r *client.CladeResponse) { r.Cached = false })
	wantSample, err := cl.SampleUniformCtx(ctx, "gold", sample.K, sample.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rerunMatches(t, cl, "sample", ids["sample"], struct{ Species []string }{wantSample}, nil)
	parsed, err := crimson.ParseNewick(pattern)
	if err != nil {
		t.Fatal(err)
	}
	wantMatch, err := cl.MatchCtx(ctx, "gold", parsed)
	if err != nil {
		t.Fatal(err)
	}
	rerunMatches(t, cl, "match", ids["match"], wantMatch, func(r *client.MatchResponse) { r.Cached = false })
	wantBench, err := cl.BenchCtx(ctx, "gold", client.BenchRequest{Sizes: bench.Sizes, Replicates: bench.Reps,
		Algorithms: bench.Algs, SeqLength: bench.SeqLength, Seed: bench.Seed})
	if err != nil {
		t.Fatal(err)
	}
	rerunMatches(t, cl, "bench", ids["bench"], *wantBench, func(rep *client.BenchReport) {
		for i := range rep.Results {
			rep.Results[i].ReconNanos = 0
		}
		for i := range rep.Summary {
			rep.Summary[i].MeanReconNanos = 0
		}
	})

	// The rerun goes through the result cache: a second one is a hit.
	var again client.ProjectResponse
	rerun(t, cl, ids["project"], &again)
	if !again.Cached || again.Newick != wantProject.Newick {
		t.Fatalf("second rerun of project = %+v, want the cached %s", again, wantProject.Newick)
	}
}

// rerun posts to /v1/history/{id}/rerun on the primary and decodes the
// body into out.
func rerun(t *testing.T, cl *client.Client, id int64, out any) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/history/%d/rerun", cl.BaseURL(), id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("rerun of #%d: %d %s", id, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("rerun of #%d: %v", id, err)
	}
}

// rerunMatches reruns history entry id, a query of the given kind, in a
// subtest and checks that its body decodes to want once norm (if not nil)
// has cleared what may differ between two runs.
func rerunMatches[T any](t *testing.T, cl *client.Client, kind string, id int64, want T, norm func(*T)) {
	t.Run(kind, func(t *testing.T) {
		var got T
		rerun(t, cl, id, &got)
		if norm != nil {
			norm(&got)
			norm(&want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rerun of #%d:\n got %+v\nwant %+v", id, got, want)
		}
	})
}

// postBody posts body to path on the primary and returns the response body,
// failing the test on any status but 200.
func postBody(t *testing.T, cl *client.Client, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(cl.BaseURL()+path, "", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, resp.StatusCode, out)
	}
	return out
}

// TestMatchPatternCanonical: a match parses its pattern once, and that parse
// is written canonically for both the result cache's key and the history. A
// pattern sent with spaces and line breaks answers as its canonical form
// does, the canonical form then hits the cache, and the history entry holds
// the pattern as it is written canonically.
func TestMatchPatternCanonical(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	gold := yule(t, 200, 5)
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, gold); err != nil {
		t.Fatal(err)
	}
	l := gold.LeafNames()
	parsed, err := crimson.ParseNewick(fmt.Sprintf("((%s,%s),%s);", l[0], l[1], l[2]))
	if err != nil {
		t.Fatal(err)
	}
	canonical := crimson.FormatNewick(parsed)
	var loose client.MatchResponse
	body := postBody(t, cl, "/v1/trees/gold/match", fmt.Sprintf(" ( ( %s , %s ) ,\n %s ) ;\n", l[0], l[1], l[2]))
	if err := json.Unmarshal(body, &loose); err != nil {
		t.Fatal(err)
	}
	again, err := cl.MatchCtx(ctx, "gold", parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("the canonical pattern missed the cache its loose form filled")
	}
	if again.Cached = loose.Cached; !reflect.DeepEqual(again, loose) {
		t.Fatalf("canonical pattern answers %+v, loose one %+v", again, loose)
	}
	want, _ := json.Marshal(queryrepo.Match{Pattern: canonical, Tree: "gold"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		hist, err := cl.HistoryCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range hist {
			if e.Kind == "match" {
				if e.Args != string(want) {
					t.Fatalf("history keeps match args %s, want %s", e.Args, want)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no match entry in the history")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBenchDefaultSeqLength: a bench request without seq_length simulates
// 500 sites, and its report says so.
func TestBenchDefaultSeqLength(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	if _, err := cl.LoadTreeCtx(context.Background(), "gold", 0, yule(t, 60, 5)); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Config struct {
			SeqLength int `json:"seq_length"`
		} `json:"config"`
	}
	body := postBody(t, cl, "/v1/trees/gold/bench", `{"sizes":[6],"replicates":1,"algorithms":["NJ"],"seed":2}`)
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Config.SeqLength != 500 {
		t.Fatalf("a bench request without seq_length reports seq_length %d, want 500", rep.Config.SeqLength)
	}
}
