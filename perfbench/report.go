package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// report is the one JSON document a run writes: the environment, then one
// comparable block per workload (declarative config in, one table out).
type report struct {
	Env       env               `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	TempFS     string  `json:"temp_dir_filesystem"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	Clients    int     `json:"clients"`
	Traced     bool    `json:"traced"`
	Quick      bool    `json:"quick"`
}

func newEnv(tmp string, seed int64, seconds float64, traced, quick bool) env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		TempFS: fsName(tmp), Seed: seed, Seconds: seconds, Clients: numClients, Traced: traced, Quick: quick}
	if traced {
		e.Clients = 1
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sizes states the working set against the caches it meets.
type sizes struct {
	Trees              int    `json:"resident_trees"`
	Nodes              int    `json:"resident_nodes"`
	PageFileBytes      int64  `json:"page_file_bytes"`
	PoolBytes          int64  `json:"buffer_pool_bytes"`
	NodeCacheBytes     int64  `json:"decoded_node_cache_bytes"`
	ResultCacheEntries int    `json:"result_cache_entries"`
	DistinctQueries    string `json:"distinct_queries"`
}

// workloadReport is one workload's block. An untraced run fills EndToEnd,
// a traced run fills Layers, Passes and Spans; the rest is common.
type workloadReport struct {
	Name     string            `json:"name"`
	Why      string            `json:"why"`
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	Layers   map[string]metric `json:"layers,omitempty"`
	// Spread holds the quartiles of each end-to-end number over the run's
	// segments: the run's own noise, which compare holds against the
	// regression bound.
	Spread     map[string]quartiles `json:"spread,omitempty"`
	Ops        map[string]latStats  `json:"ops"`
	Counters   map[string]int64     `json:"counters,omitempty"`
	Sizes      sizes                `json:"sizes"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	FailedFrac float64              `json:"failed_frac"`
	Verified   int                  `json:"oracle_checked"`
	Failures   []string             `json:"failures,omitempty"`

	TailPercentile float64   `json:"p99_ms_percentile,omitempty"`
	TailBeyond     int       `json:"p99_ms_samples_beyond_per_segment,omitempty"`
	HarnessGenS    float64   `json:"harness_gen_s"`
	SetupRunsS     []float64 `json:"setup_runs_s,omitempty"`
	StreamDigest   string    `json:"op_stream_digest"`

	Passes   []passReport `json:"passes,omitempty"`
	LayerSum *layerSum    `json:"layer_sum_check,omitempty"`
	Spans    []span       `json:"spans,omitempty"`
}

func newWorkloadReport(cfg runConfig) *workloadReport {
	return &workloadReport{Name: cfg.spec.Name, Why: cfg.spec.Why, Ops: map[string]latStats{}}
}

func (r *workloadReport) sizes(s *sut, fx *fixture) {
	r.Sizes = sizes{Trees: len(fx.resident), PoolBytes: poolBytes, NodeCacheBytes: serveReadCacheMB << 20,
		ResultCacheEntries: resultCacheEntries, DistinctQueries: "every query unique"}
	for _, tf := range fx.resident {
		r.Sizes.Nodes += tf.tree.NumNodes()
	}
	if st, err := os.Stat(s.pageFile()); err == nil {
		r.Sizes.PageFileBytes = st.Size()
	}
	if fx.spec.hotPool {
		n := 0
		for _, qs := range newOpGen(fx, 0, 0, "").pool {
			n += len(qs)
		}
		r.Sizes.DistinctQueries = fmt.Sprint(n)
	}
}

// segments is the number of equal parts the measured phase is cut into.
// Every end-to-end number is the median of its per-segment values, so a
// burst of interference on the box (CPU steal, a slow fsync episode) that
// lands in one or two segments does not decide the run.
const segments = 5

// endToEnd turns the clients' logs into the end-to-end metrics.
func (r *workloadReport) endToEnd(logs []*clientLog, phase time.Duration, tail, setupS float64) {
	var lat []float64
	segLat := make([][]float64, segments)
	byKind := map[opKind][]float64{}
	segLen := phase / segments
	for _, l := range logs {
		r.Failed += l.failed
		r.Failures = append(r.Failures, l.failures...)
		for _, s := range l.samples {
			v := ms(s.lat)
			lat = append(lat, v)
			byKind[s.kind] = append(byKind[s.kind], v)
			// An op belongs to the segment it completed in; the ones in
			// flight at the deadline complete past the last segment and
			// count towards the totals only.
			if seg := int(s.end / segLen); seg < segments {
				segLat[seg] = append(segLat[seg], v)
			}
		}
	}
	r.Attempted = len(lat)
	rates, p50s, tails := make([]float64, segments), make([]float64, segments), make([]float64, segments)
	beyond := len(lat)
	for i, sl := range segLat {
		sort.Float64s(sl)
		rates[i] = float64(len(sl)) / segLen.Seconds()
		p50s[i], tails[i] = quantile(sl, 0.5), quantile(sl, tail)
		beyond = min(beyond, int(float64(len(sl))*(1-tail)+0.5))
	}
	r.Spread = map[string]quartiles{"ops_per_s": quartilesOf(rates), "p50_ms": quartilesOf(p50s), "p99_ms": quartilesOf(tails)}
	r.EndToEnd = map[string]metric{
		"ops_per_s": {r.Spread["ops_per_s"].Median, "1/s"},
		"p50_ms":    {r.Spread["p50_ms"].Median, "ms"},
		"p99_ms":    {r.Spread["p99_ms"].Median, "ms"},
		"setup_s":   {setupS, "s"},
	}
	r.TailPercentile, r.TailBeyond = tail, beyond
	for k, v := range byKind {
		r.Ops[k.String()] = latStatsOf(v)
	}
}

// verify compares the kept (query, response) pairs with the in-memory
// engine. A mismatch is a failed op.
func (r *workloadReport) verify(fx *fixture, logs []*clientLog) {
	seen := map[string]bool{}
	for _, l := range logs {
		for i := range l.kept {
			k := &l.kept[i]
			if fx.spec.hotPool {
				// The pool repeats: each distinct (query, answer) pair needs
				// one check, and a second answer to a query is a second pair.
				id := fmt.Sprintf("%s\x00%v|%s|%v|%d|%d", k.o.key(), k.res.node, k.res.newick, k.res.names, k.res.n, k.res.leaves)
				if seen[id] {
					continue
				}
				seen[id] = true
			}
			r.Verified++
			if err := oracleCheck(fx, &k.o, &k.res); err != nil {
				r.Failed++
				if len(r.Failures) < 10 {
					r.Failures = append(r.Failures, fmt.Sprintf("oracle: %s %s: %v", k.o.kind, k.o.tree, err))
				}
			}
		}
	}
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
}

// contractLine is the driver-facing result: the last line of stdout.
func (r *workloadReport) contractLine(traced bool) string {
	metrics := r.EndToEnd
	if traced {
		metrics = r.Layers
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	return string(line)
}

// print writes the human-readable table: every metric by name and unit.
func (r *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", r.Name, r.Why)
	fmt.Fprintf(w, "sizes: %d tree(s), %d nodes, page file %.1f MB vs pool %.1f MB, node cache %d MB, result cache %d entries, queries: %s\n",
		r.Sizes.Trees, r.Sizes.Nodes, float64(r.Sizes.PageFileBytes)/1e6, float64(r.Sizes.PoolBytes)/1e6,
		r.Sizes.NodeCacheBytes>>20, r.Sizes.ResultCacheEntries, r.Sizes.DistinctQueries)
	printMetrics(w, r.EndToEnd)
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "  %-38s %12.6g\n", "failed_frac", r.FailedFrac)
		fmt.Fprintf(w, "  (medians of %d segments; p99_ms is the %.0fth percentile, >= %d samples beyond it per segment; %d ops; harness_gen_s %.3f; set-ups %.3f s; segment spread ops/s %.1f%% p50 %.1f%% p99 %.1f%%)\n",
			segments, r.TailPercentile*100, r.TailBeyond, r.Attempted, r.HarnessGenS, r.SetupRunsS,
			100*r.Spread["ops_per_s"].spread(), 100*r.Spread["p50_ms"].spread(), 100*r.Spread["p99_ms"].spread())
	}
	printMetrics(w, r.Layers)
	for _, p := range r.Passes {
		fmt.Fprintf(w, "  pass %-18s %6d ops  mean %9.4f ms  p50 %9.4f ms  wall %6.2f s\n", p.Name, p.Ops, p.MeanMS, p.P50MS, p.WallS)
	}
	if ls := r.LayerSum; ls != nil {
		fmt.Fprintf(w, "  layer self times sum to %.4f ms, top pass mean %.4f ms (ratio %.4f)\n", ls.SumMS, ls.TopMeanMS, ls.Ratio)
	}
	kinds := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := r.Ops[k]
		fmt.Fprintf(w, "  op %-12s count %7d  p50 %9.4f ms  p%.0f %9.4f ms\n", k, s.Count, s.P50MS, s.TailPercentile*100, s.TailMS)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, checked against the oracle %d\n", r.Attempted, r.Failed, r.Verified)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-38s %12.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func writeReport(path string, rep *report) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
