package server_test

import (
	"context"
	"os"
	"sort"
	"strings"
	"testing"

	crimson "repro"
)

// metricsSeriesFile lists every /metrics family in exposition order, one
// line each: name, TYPE, then each series the family emits as its sample
// name suffix and label keys — values stripped, so the file pins which
// series exist and how they are labelled, not what they count.
const metricsSeriesFile = "testdata/metrics_series.txt"

// metricsSeries renders a /metrics page in metricsSeriesFile's format.
func metricsSeries(t *testing.T, text string) string {
	t.Helper()
	fams := parseProm(t, text) // strict: metadata, grouping, sample syntax
	var order []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			order = append(order, strings.Fields(rest)[0])
		}
	}
	var sb strings.Builder
	for _, name := range order {
		f := fams[name]
		seen := map[string]bool{}
		for _, s := range f.samples {
			keys := make([]string, 0, len(s.labels))
			for k := range s.labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			seen[strings.TrimPrefix(s.name, name)+"{"+strings.Join(keys, ",")+"}"] = true
		}
		series := make([]string, 0, len(seen))
		for s := range seen {
			series = append(series, s)
		}
		sort.Strings(series)
		sb.WriteString(name + " " + f.typ + " " + strings.Join(series, " ") + "\n")
	}
	return sb.String()
}

// TestMetricsSeriesGolden: /metrics emits exactly the families, types and
// label keys of testdata/metrics_series.txt, in that order. A family
// dropped, renamed, retyped or relabelled fails here; one added fails too,
// until the file lists it.
func TestMetricsSeriesGolden(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	gold := yule(t, 40, 3)
	if _, err := cl.LoadTreeCtx(ctx, "m", crimson.DefaultFanout, gold); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := cl.LCACtx(ctx, "m", gold.LeafNames()[0], gold.LeafNames()[1]); err != nil {
		t.Fatalf("lca: %v", err)
	}
	text, err := cl.MetricsCtx(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	got := metricsSeries(t, text)
	want, err := os.ReadFile(metricsSeriesFile)
	if err != nil {
		t.Fatalf("reading %s: %v", metricsSeriesFile, err)
	}
	if got != string(want) {
		t.Fatalf("/metrics series differ from %s; the page now emits:\n%s", metricsSeriesFile, got)
	}
}
