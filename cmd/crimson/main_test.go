package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	crimson "repro"
	"repro/internal/queryrepo"
)

// withArgs runs the CLI entry with the given args, capturing stdout.
func withArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const fig1 = "(Syn:2.5,((Lla:1,Spy:1):1.5,Bha:0.75):0.5,Bsu:1.25);"

func TestGenAndView(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.nwk")
	if _, err := withArgs(t, "gen", "--model", "yule", "--n", "50", "--seed", "3", "--out", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil || !strings.Contains(string(data), "taxon000000") {
		t.Fatalf("gen output: %q, %v", data, err)
	}
	ascii, err := withArgs(t, "view", "--tree", out, "--format", "ascii")
	if err != nil || !strings.Contains(ascii, "└─") {
		t.Fatalf("view ascii: %v\n%s", err, ascii)
	}
	dot, err := withArgs(t, "view", "--tree", out, "--format", "dot")
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Fatalf("view dot: %v", err)
	}
	libsea, err := withArgs(t, "view", "--tree", out, "--format", "libsea")
	if err != nil || !strings.Contains(libsea, "@numNodes=99") {
		t.Fatalf("view libsea: %v\n%.200s", err, libsea)
	}
	nex, err := withArgs(t, "view", "--tree", out, "--format", "nexus")
	if err != nil || !strings.Contains(nex, "#NEXUS") {
		t.Fatalf("view nexus: %v", err)
	}
	if _, err := withArgs(t, "view", "--tree", out, "--format", "bogus"); err == nil {
		t.Fatal("bogus format accepted")
	}
	if _, err := withArgs(t, "gen", "--model", "bogus"); err == nil {
		t.Fatal("bogus model accepted")
	}
}

func TestLoadQueryPipeline(t *testing.T) {
	dir := t.TempDir()
	nwk := writeFile(t, dir, "fig1.nwk", fig1)
	repo := filepath.Join(dir, "repo.db")

	out, err := withArgs(t, "load", "--repo", repo, "--name", "fig1", "--newick", nwk, "--quiet")
	if err != nil || !strings.Contains(out, `loaded "fig1"`) {
		t.Fatalf("load: %v\n%s", err, out)
	}
	out, err = withArgs(t, "trees", "--repo", repo)
	if err != nil || !strings.Contains(out, "fig1") {
		t.Fatalf("trees: %v\n%s", err, out)
	}
	out, err = withArgs(t, "info", "--repo", repo, "--name", "fig1")
	if err != nil || !strings.Contains(out, "leaves: 5") {
		t.Fatalf("info: %v\n%s", err, out)
	}
	out, err = withArgs(t, "lca", "--repo", repo, "--name", "fig1", "--species", "Lla,Spy")
	if err != nil || !strings.Contains(out, "depth 2") {
		t.Fatalf("lca: %v\n%s", err, out)
	}
	out, err = withArgs(t, "project", "--repo", repo, "--name", "fig1", "--species", "Bha,Lla,Syn")
	if err != nil || !strings.Contains(out, "(Syn:2.5,(Lla:2.5,Bha:0.75):0.5);") {
		t.Fatalf("project: %v\n%s", err, out)
	}
	out, err = withArgs(t, "clade", "--repo", repo, "--name", "fig1", "--species", "Lla,Spy")
	if err != nil || !strings.Contains(out, "3 nodes, 2 leaves") {
		t.Fatalf("clade: %v\n%s", err, out)
	}
	out, err = withArgs(t, "sample", "--repo", repo, "--name", "fig1", "--k", "4", "--time", "1", "--seed", "5")
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	for _, want := range []string{"Bha", "Syn", "Bsu"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sample output missing %s: %s", want, out)
		}
	}
	// Pattern match: Figure 2 pattern matches, swapped pattern does not.
	pat := writeFile(t, dir, "pat.nwk", "(Syn:1,(Lla:1,Bha:1):1);")
	out, err = withArgs(t, "match", "--repo", repo, "--name", "fig1", "--pattern", pat)
	if err != nil || !strings.Contains(out, "MATCH") || strings.Contains(out, "NO MATCH") {
		t.Fatalf("match: %v\n%s", err, out)
	}
	swapped := writeFile(t, dir, "swap.nwk", "(Bha:1,(Lla:1,Syn:1):1);")
	out, err = withArgs(t, "match", "--repo", repo, "--name", "fig1", "--pattern", swapped)
	if err != nil || !strings.Contains(out, "NO MATCH") {
		t.Fatalf("swapped match: %v\n%s", err, out)
	}
	// History recorded all of the above.
	out, err = withArgs(t, "history", "--repo", repo, "--limit", "0")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"load", "lca", "project", "clade", "sample", "match"} {
		if !strings.Contains(out, kind) {
			t.Fatalf("history missing %q:\n%s", kind, out)
		}
	}
}

func TestSeqGenAndNexusLoad(t *testing.T) {
	dir := t.TempDir()
	nwk := writeFile(t, dir, "fig1.nwk", fig1)
	nexusOut := filepath.Join(dir, "sim.nex")
	if _, err := withArgs(t, "seqgen", "--tree", nwk, "--len", "40", "--model", "k2p", "--kappa", "3", "--seed", "2", "--out", nexusOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(nexusOut)
	if err != nil || !strings.Contains(string(data), "#NEXUS") || !strings.Contains(string(data), "MATRIX") {
		t.Fatalf("seqgen output: %v\n%.200s", err, data)
	}
	repo := filepath.Join(dir, "repo.db")
	out, err := withArgs(t, "load", "--repo", repo, "--nexus", nexusOut, "--quiet")
	if err != nil || !strings.Contains(out, `loaded "sim"`) {
		t.Fatalf("nexus load: %v\n%s", err, out)
	}
}

func TestBenchCommand(t *testing.T) {
	dir := t.TempDir()
	gold := filepath.Join(dir, "gold.nwk")
	if _, err := withArgs(t, "gen", "--model", "yule", "--n", "60", "--seed", "4", "--out", gold); err != nil {
		t.Fatal(err)
	}
	out, err := withArgs(t, "bench", "--gold", gold, "--sizes", "8", "--reps", "1", "--len", "100", "--seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NJ") || !strings.Contains(out, "UPGMA") {
		t.Fatalf("bench output:\n%s", out)
	}
	if _, err := withArgs(t, "bench", "--gold", gold, "--alg", "bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if _, err := withArgs(t, "bench"); err == nil {
		t.Fatal("bench without inputs accepted")
	}
}

func TestRerunAndFsck(t *testing.T) {
	dir := t.TempDir()
	nwk := writeFile(t, dir, "fig1.nwk", fig1)
	repo := filepath.Join(dir, "repo.db")
	if _, err := withArgs(t, "load", "--repo", repo, "--name", "fig1", "--newick", nwk, "--quiet"); err != nil {
		t.Fatal(err)
	}
	first, err := withArgs(t, "project", "--repo", repo, "--name", "fig1", "--species", "Bha,Lla,Syn")
	if err != nil {
		t.Fatal(err)
	}
	// The project query was recorded as entry #2 (after the load).
	out, err := withArgs(t, "rerun", "--repo", repo, "--id", "2")
	if err != nil {
		t.Fatalf("rerun: %v\n%s", err, out)
	}
	if !strings.Contains(out, strings.TrimSpace(first)) {
		t.Fatalf("rerun output differs:\nfirst: %s\nrerun: %s", first, out)
	}
	// Sample queries rerun with their recorded seed, reproducing results.
	s1, err := withArgs(t, "sample", "--repo", repo, "--name", "fig1", "--k", "3", "--seed", "11")
	if err != nil {
		t.Fatal(err)
	}
	out, err = withArgs(t, "rerun", "--repo", repo, "--id", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, strings.TrimSpace(s1)) {
		t.Fatalf("sample rerun not reproducible:\n%s vs %s", s1, out)
	}
	// Match and bench rerun too: the same RF line, and the same report.
	pat := writeFile(t, dir, "pat.nwk", "(Bha:1,(Lla:1,Syn:1):1);")
	m1, err := withArgs(t, "match", "--repo", repo, "--name", "fig1", "--pattern", pat)
	if err != nil {
		t.Fatal(err)
	}
	out, err = withArgs(t, "rerun", "--repo", repo, "--id", "6")
	if err != nil || out != "rerunning #6 (match)\n"+m1 {
		t.Fatalf("match rerun: %v\n%s vs %s", err, m1, out)
	}
	firstJSON := filepath.Join(dir, "first.json")
	b1, err := withArgs(t, "bench", "--repo", repo, "--name", "fig1", "--sizes", "4", "--reps", "2", "--len", "60",
		"--alg", "NJ,UPGMA", "--seed", "9", "--json", firstJSON)
	if err != nil {
		t.Fatal(err)
	}
	out, err = withArgs(t, "rerun", "--repo", repo, "--id", "8")
	if err != nil || withoutTimes(out) != "rerunning #8 (bench)\n"+withoutTimes(b1) {
		t.Fatalf("bench rerun: %v\n%s vs %s", err, b1, out)
	}
	// The entry holds what the report depends on, the seed included: the
	// report at its values is the first one, byte for byte but the timings.
	entry := historyEntry(t, repo, 8)
	b, err := entry.Query()
	if err != nil {
		t.Fatal(err)
	}
	bench := b.(queryrepo.Bench)
	var sizes []string
	for _, n := range bench.Sizes {
		sizes = append(sizes, strconv.Itoa(n))
	}
	again, err := withArgs(t, "bench", "--repo", repo, "--name", bench.Tree, "--sizes", strings.Join(sizes, ","),
		"--reps", strconv.Itoa(bench.Reps), "--len", strconv.Itoa(bench.SeqLength), "--alg", strings.Join(bench.Algs, ","),
		"--time", strconv.FormatFloat(bench.Time, 'g', -1, 64), "--seed", strconv.FormatInt(bench.Seed, 10), "--json", "-")
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(firstJSON)
	if err != nil {
		t.Fatal(err)
	}
	if withoutTimes(again) != withoutTimes(string(report)) {
		t.Fatalf("report at the recorded values differs:\n%s\nvs\n%s", report, again)
	}
	// Unknown id and non-rerunnable kinds fail cleanly.
	if _, err := withArgs(t, "rerun", "--repo", repo, "--id", "999"); err == nil {
		t.Fatal("rerun of missing id accepted")
	}
	if _, err := withArgs(t, "rerun", "--repo", repo, "--id", "1"); err == nil {
		t.Fatal("rerun of load accepted")
	}
	// fsck passes on a healthy repository.
	out, err = withArgs(t, "fsck", "--repo", repo)
	if err != nil || !strings.Contains(out, "ok:") {
		t.Fatalf("fsck: %v\n%s", err, out)
	}
}

// reconTime matches a reconstruction time: the last column of a bench
// table row, or a recon_ns field of its JSON report.
var reconTime = regexp.MustCompile(`(?m)( [0-9.]+[nµm]?s$|recon_ns": [0-9]+)`)

// withoutTimes blanks the reconstruction times of bench output, the one
// part two runs at one seed do not share.
func withoutTimes(out string) string { return reconTime.ReplaceAllString(out, " _") }

func historyEntry(t *testing.T, path string, id int64) queryrepo.Entry {
	t.Helper()
	repo, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	snap := repo.Snapshot()
	defer snap.Close()
	e, err := snap.QueryView.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBenchWithParsimony(t *testing.T) {
	dir := t.TempDir()
	gold := filepath.Join(dir, "gold.nwk")
	if _, err := withArgs(t, "gen", "--model", "yule", "--n", "30", "--seed", "4", "--out", gold); err != nil {
		t.Fatal(err)
	}
	out, err := withArgs(t, "bench", "--gold", gold, "--sizes", "8", "--reps", "1", "--len", "100", "--alg", "NJ,MP", "--seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MP") || !strings.Contains(out, "NJ") {
		t.Fatalf("bench with MP:\n%s", out)
	}
}

func TestUsageAndErrors(t *testing.T) {
	if _, err := withArgs(t); err != nil {
		t.Fatal("bare invocation should print usage without error")
	}
	if _, err := withArgs(t, "help"); err != nil {
		t.Fatal(err)
	}
	if _, err := withArgs(t, "no-such-command"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := withArgs(t, "load"); err == nil {
		t.Fatal("load without repo accepted")
	}
	if _, err := withArgs(t, "lca", "--repo", "/nonexistent/dir/x.db", "--name", "t", "--species", "a,b"); err == nil {
		t.Fatal("bad repo path accepted")
	}
}
