package main

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// quickRun runs every workload at quick scale, as `perfbench -quick` does.
func quickRun(t *testing.T, traced bool, names ...string) (*report, []string) {
	t.Helper()
	args := []string{"-quick", "-tmp", t.TempDir(), "-workload", strings.Join(names, ",")}
	if traced {
		args = append(args, "-trace", "1")
	}
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	o.stdout, o.stderr = &lines, io.Discard
	rep, err := runAll(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return rep, strings.Split(strings.TrimSpace(lines.String()), "\n")
}

// contractMetrics decodes one result line and checks its shape.
func contractMetrics(t *testing.T, line string) map[string]metric {
	t.Helper()
	var res struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Fatalf("result line %q: want correct, attempted >= 1, failed 0", line)
	}
	return res.Metrics
}

// TestQuickRunMeetsTheDeclaration drives all five workloads end to end —
// set-up, mix, shape and oracle checks, teardown — and holds the output to
// BENCHMARK.json: the same workloads, and exactly the declared metrics
// with the declared units.
func TestQuickRunMeetsTheDeclaration(t *testing.T) {
	bench := benchDecl()
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, perfbench %q", i, w.Name, workloads[i].Name)
		}
	}

	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		if traced {
			for _, m := range bench.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bench.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		rep, lines := quickRun(t, traced)
		if len(lines) != len(workloads) || len(rep.Workloads) != len(workloads) {
			t.Fatalf("traced=%v: %d result lines, %d report blocks, want %d", traced, len(lines), len(rep.Workloads), len(workloads))
		}
		for i, line := range lines {
			w := rep.Workloads[i]
			if w.FailedFrac != 0 || w.Verified == 0 {
				t.Errorf("%s traced=%v: failed_frac %g, %d ops checked against the oracle", w.Name, traced, w.FailedFrac, w.Verified)
			}
			got := contractMetrics(t, line)
			for name, unit := range want {
				if m, ok := got[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s is %+v, want unit %q", w.Name, traced, name, m, unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not declared in BENCHMARK.json", w.Name, traced, name)
				}
			}
			if !traced && got["ops_per_s"].Value <= 0 {
				t.Errorf("%s: ops_per_s %g", w.Name, got["ops_per_s"].Value)
			}
			if traced {
				if ls := w.LayerSum; ls == nil || ls.Ratio < 0.99 || ls.Ratio > 1.01 {
					t.Errorf("%s: layer self times do not sum to the top pass: %+v", w.Name, ls)
				}
			}
		}
	}
}

// The paper's counts (label bytes per node, layers) are exact: two traced
// runs of one seed must print the same numbers.
func TestPaperCountsRepeatExactly(t *testing.T) {
	a, _ := quickRun(t, true, "deep_inproc")
	b, _ := quickRun(t, true, "deep_inproc")
	n := 0
	for name, m := range a.Workloads[0].Layers {
		if strings.HasPrefix(name, "paper.") {
			n++
			if m != b.Workloads[0].Layers[name] {
				t.Errorf("%s: %v then %v", name, m, b.Workloads[0].Layers[name])
			}
		}
	}
	if n != 6 {
		t.Errorf("%d paper.* metrics, want 6", n)
	}
	if a.Workloads[0].StreamDigest != b.Workloads[0].StreamDigest {
		t.Error("two runs of one seed generated different op streams")
	}
}
