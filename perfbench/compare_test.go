package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func benchDecl() *benchmarkFile {
	b := &benchmarkFile{}
	if err := readJSON("../BENCHMARK.json", b); err != nil {
		panic(err)
	}
	return b
}

func reportWith(opsPerS, windowIQR, failedFrac float64) *report {
	return &report{Workloads: []*workloadReport{{
		Name:       "served_hot",
		EndToEnd:   map[string]metric{"ops_per_s": {opsPerS, "1/s"}, "p50_ms": {1, "ms"}},
		Spread:     map[string]quartiles{"ops_per_s": {Q1: 1000 - windowIQR*500, Median: 1000, Q3: 1000 + windowIQR*500}, "p50_ms": {Q1: 1, Median: 1, Q3: 1}},
		FailedFrac: failedFrac,
	}}}
}

// ruleBench declares a 10 % bound on throughput, so the cases below test
// the rule and not whatever bound BENCHMARK.json currently carries.
func ruleBench() *benchmarkFile {
	b := &benchmarkFile{}
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}]}`), b); err != nil {
		panic(err)
	}
	return b
}

func TestCompareAppliesTheRegressionRule(t *testing.T) {
	bench := ruleBench()
	for _, c := range []struct {
		name            string
		base, cand      *report
		wantBad         bool
		wantOpsPerSLine string
	}{
		{"12% throughput drop", reportWith(1000, 0.02, 0), reportWith(880, 0.02, 0), true, regressed},
		{"5% throughput drop", reportWith(1000, 0.02, 0), reportWith(950, 0.02, 0), false, unchanged},
		{"5% drop, noisy candidate", reportWith(1000, 0.02, 0), reportWith(950, 0.30, 0), false, unresolved},
		{"20% gain", reportWith(1000, 0.02, 0), reportWith(1200, 0.02, 0), false, improved},
		{"same speed, new failures", reportWith(1000, 0.02, 0), reportWith(1000, 0.02, 0.001), true, unchanged},
	} {
		var out strings.Builder
		bad := compareReports(&out, bench, c.base, c.cand)
		if bad != c.wantBad {
			t.Errorf("%s: regression=%v, want %v\n%s", c.name, bad, c.wantBad, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "ops_per_s") && !strings.HasSuffix(line, c.wantOpsPerSLine) {
				t.Errorf("%s: ops_per_s row %q, want verdict %s", c.name, line, c.wantOpsPerSLine)
			}
		}
	}
}

// compare must take its bounds from BENCHMARK.json: a drop just past the
// declared bound regresses, one just inside it does not.
func TestCompareReadsTheDeclaredBounds(t *testing.T) {
	bench := benchDecl()
	var bound float64
	for _, m := range bench.EndToEnd {
		if m.Name == "ops_per_s" {
			bound = m.Bound
		}
	}
	if bound <= 0 || bound > 0.25 {
		t.Fatalf("BENCHMARK.json bounds ops_per_s at %g, want (0, 0.25]", bound)
	}
	if !compareReports(io.Discard, bench, reportWith(1000, 0, 0), reportWith(1000*(1-bound-0.02), 0, 0)) {
		t.Errorf("a drop of %.0f%% passed a %.0f%% bound", 100*(bound+0.02), 100*bound)
	}
	if compareReports(io.Discard, bench, reportWith(1000, 0, 0), reportWith(1000*(1-bound+0.02), 0, 0)) {
		t.Errorf("a drop of %.0f%% failed a %.0f%% bound", 100*(bound-0.02), 100*bound)
	}
}

func TestJudgeIsDirectionAware(t *testing.T) {
	if _, v := judge(10, 12, 0.10, false, 0, 0); v != regressed {
		t.Errorf("latency 10 -> 12 ms: %s, want %s", v, regressed)
	}
	if _, v := judge(10, 12, 0.10, true, 0, 0); v != improved {
		t.Errorf("throughput 10 -> 12: %s, want %s", v, improved)
	}
	if compareReports(io.Discard, benchDecl(), reportWith(1000, 0, 0), reportWith(1000, 0, 0)) {
		t.Error("a report compared with itself regressed")
	}
}
