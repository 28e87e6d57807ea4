package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and the relative worsening that counts as
// a regression.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdicts of one (workload, metric) row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved" // within the bound, but the inputs' own spread is wider than the bound
	regressed  = "REGRESSED"
)

// judge applies the regression rule to one metric: base and cand are the
// two values, worse-by-more-than-bound is a regression whichever way
// "better" points, and a difference inside the bound is only "unchanged"
// if both runs were steadier than the bound themselves.
func judge(base, cand, bound float64, higherIsBetter bool, spreadBase, spreadCand float64) (worse float64, verdict string) {
	if base == 0 {
		return 0, unresolved
	}
	worse = (cand - base) / base
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return worse, regressed
	case worse < -bound:
		return worse, improved
	case spreadBase > bound || spreadCand > bound:
		return worse, unresolved
	}
	return worse, unchanged
}

// ownSpread is a run's noise on one metric: the interquartile spread of
// its segments or, for setup_s, of its repeated set-ups.
func ownSpread(w *workloadReport, name string) float64 {
	if name == "setup_s" {
		return quartilesOf(w.SetupRunsS).spread()
	}
	return w.Spread[name].spread()
}

// compareReports prints one row per (workload, metric) and reports whether
// any row regressed or failed more.
func compareReports(out io.Writer, bench *benchmarkFile, a, b *report) (bad bool) {
	byName := map[string]*workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "%-14s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "candidate", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, m := range bench.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(va.Value, vb.Value, m.Bound, m.Better == "higher", ownSpread(wa, m.Name), ownSpread(wb, m.Name))
			bad = bad || verdict == regressed
			fmt.Fprintf(out, "%-14s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", wa.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
		verdict := unchanged
		if wb.FailedFrac > wa.FailedFrac {
			verdict, bad = regressed, true
		}
		fmt.Fprintf(out, "%-14s %-12s %14.6g %14.6g %9s %7s  %s\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac, "", "any", verdict)
	}
	return bad
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark declaration the bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.json candidate.json")
		return 2
	}
	var bench benchmarkFile
	var a, b report
	for path, v := range map[string]any{*benchPath: &bench, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if compareReports(os.Stdout, &bench, &a, &b) {
		return 1
	}
	return 0
}
