package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/storage"
	"repro/internal/treegen"
)

// span is one timed interval recorded by perfbench around a call into a
// layer. Spans of one op share Pass and Op; Parent indexes the enclosing
// span in the same log (-1 for the op's own span).
type span struct {
	Pass    string  `json:"pass"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is what an untraced pass hands its entrances.
type spanLog struct {
	off   bool // set while an op of the untraced half runs
	t0    time.Time
	pass  string
	op    int
	root  int // index of the current op's span
	spans []span
}

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.t0)) / float64(time.Microsecond) }

func (l *spanLog) beginOp(pass string, op int, name string, start time.Time) {
	if l == nil || l.off {
		return
	}
	l.pass, l.op, l.root = pass, op, len(l.spans)
	l.spans = append(l.spans, span{Pass: pass, Op: op, Name: name, Parent: -1, StartUS: l.us(start)})
}

func (l *spanLog) endOp(end time.Time) {
	if l != nil && !l.off {
		l.spans[l.root].EndUS = l.us(end)
	}
}

func (l *spanLog) child(name string, start, end time.Time) {
	if l == nil || l.off {
		return
	}
	l.spans = append(l.spans, span{Pass: l.pass, Op: l.op, Name: name, Parent: l.root, StartUS: l.us(start), EndUS: l.us(end)})
}

// selfTime sums, per span name, each span's duration minus the part its
// child spans cover.
func (l *spanLog) selfTime() map[string]time.Duration {
	covered := make([]float64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		out[s.Pass+"/"+s.Name] += time.Duration((s.EndUS - s.StartUS - covered[i]) * float64(time.Microsecond))
	}
	return out
}

// passReport is one replay of the op list at one entrance.
type passReport struct {
	Name     string              `json:"name"`
	Ops      int                 `json:"ops"`
	Executed int                 `json:"executed"` // ops that reached this entrance (the rest were result-cache hits above it)
	Writes   int                 `json:"writes"`   // mutations this entrance carried out
	MeanMS   float64             `json:"mean_ms"`
	P50MS    float64             `json:"p50_ms"`
	WallS    float64             `json:"wall_s"`
	Counters map[string]int64    `json:"counters"`
	OpStats  map[string]latStats `json:"op_stats"` // per op class; a skipped op counts as 0 ms
	// TraceOverheadFrac is 1 - traced/untraced ops per second between the
	// two halves of the outermost pass (zero on the other passes).
	TraceOverheadFrac float64 `json:"trace_overhead_frac,omitempty"`
}

// layerSum is the additivity check: layer self times are differences of
// adjacent passes' per-op means, so they telescope to the top pass's mean.
type layerSum struct {
	SumMS     float64 `json:"self_times_sum_ms"`
	TopMeanMS float64 `json:"top_pass_mean_ms"`
	Ratio     float64 `json:"ratio"`
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// heapSampler tracks peak heap-in-use while the passes run.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapUnused  = "/memory/classes/heap/unused:bytes"
	heapAllocs  = "/gc/heap/allocs:objects"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, readMetric(heapObjects)+readMetric(heapUnused))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// tracedRun holds the state the passes share.
type tracedRun struct {
	cfg      runConfig
	fx       *fixture
	spans    *spanLog
	nOps     int
	verified int
	// skip marks ops the server answered from its result cache: the layers
	// below never saw them, so the lower passes charge them nothing.
	skip []bool
}

// ops regenerates client 0's first nOps ops. prefix only changes the names
// of trees the stream itself loads, so every pass replays the same queries.
func (tr *tracedRun) ops(prefix string) []op {
	st := newStream(tr.fx, tr.cfg.seed, 0, prefix)
	ops := make([]op, tr.nOps)
	for i := range ops {
		ops[i] = st.next()
	}
	return ops
}

// passSpec is one pass of a traced run. open runs after the system has been
// prepared for the pass, so it sees the servers and repositories the pass
// will really use; the func it returns runs when the pass is over.
type passSpec struct {
	name         string
	open         func() (entrance, func())
	learnsCached bool // the pass that sees which ops the result cache answers
	belowServer  bool // a pass under the result cache: those ops never reach it
}

// pass replays the op list at one entrance and reports per-op times. With
// halfTraced, spans are recorded for every other mix block only (each
// block holds the same ops by count) and the pass reports the tracing
// overhead as the two halves' rate difference.
func (tr *tracedRun) pass(ctx context.Context, ps passSpec, ent entrance, halfTraced bool) (passReport, error) {
	name := ps.name
	ops := tr.ops(name + "_")
	blockLen := tr.fx.spec.blockLen()
	lat := make([]float64, len(ops))
	byKind := map[opKind][]float64{}
	pr := passReport{Name: name, Ops: len(ops), OpStats: map[string]latStats{}}
	var wallHalf [2]time.Duration // untraced, traced
	var opsHalf [2]float64
	before := crimson.EngineCounters()
	wall := time.Now()
	for i := range ops {
		o := &ops[i]
		if ps.belowServer && tr.skip[i] {
			byKind[o.kind] = append(byKind[o.kind], 0)
			continue
		}
		half := i / blockLen % 2
		tr.spans.off = halfTraced && half == 0
		start := time.Now()
		tr.spans.beginOp(name, i, o.kind.String(), start)
		res, d, err := ent.do(ctx, o)
		tr.spans.endOp(time.Now())
		wallHalf[half] += time.Since(start)
		opsHalf[half]++
		if err == nil {
			err = shapeCheck(tr.fx, o, &res)
		}
		if err == nil && i%verifyEvery == 0 {
			tr.verified++
			err = oracleCheck(tr.fx, o, &res)
		}
		if err != nil {
			return pr, fmt.Errorf("perfbench: %s pass, op %d (%s): %w", name, i, o.kind, err)
		}
		if ps.learnsCached {
			tr.skip[i] = res.cached
		}
		pr.Executed++
		if d > 0 && (o.kind == opPut || o.kind == opLoad || o.kind == opDelete) {
			pr.Writes++
		}
		lat[i] = ms(d)
		byKind[o.kind] = append(byKind[o.kind], lat[i])
	}
	tr.spans.off = false
	pr.WallS = time.Since(wall).Seconds()
	pr.Counters = counterDelta(before, crimson.EngineCounters())
	pr.MeanMS, pr.P50MS = mean(lat), median(lat)
	for k, v := range byKind {
		pr.OpStats[k.String()] = latStatsOf(v)
	}
	if halfTraced && wallHalf[0] > 0 && wallHalf[1] > 0 {
		untraced, traced := opsHalf[0]/wallHalf[0].Seconds(), opsHalf[1]/wallHalf[1].Seconds()
		pr.TraceOverheadFrac = 1 - traced/untraced
	}
	return pr, nil
}

// runTraced is the per-layer run: one client, the same seeded op list
// replayed at successive entrances — client (TCP) -> server.ServeHTTP ->
// crimson facade -> treestore handles — each pass from the same cache
// state, then the relstore/storage/newick/repl probes.
func runTraced(ctx context.Context, cfg runConfig, keepSpans bool) (*workloadReport, error) {
	rep := newWorkloadReport(cfg)
	t0 := time.Now()
	fx, err := newFixture(cfg.spec, cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.HarnessGenS = time.Since(t0).Seconds()
	rep.StreamDigest = streamDigest(fx, cfg.seed, 64)

	dir, err := workDir(cfg.tmp, 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, setup, err := setUp(ctx, cfg, fx, dir, 1)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rep.SetupRunsS = []float64{setup.Seconds()}
	rep.sizes(s, fx)

	tr := &tracedRun{cfg: cfg, fx: fx, spans: &spanLog{t0: time.Now()},
		nOps: max(20, int(cfg.spec.traceRate*cfg.seconds))}
	tr.skip = make([]bool, tr.nOps)

	// prepare puts the system in the pass's starting state: cold caches
	// where the data outgrows them (served_cold: its point is that nothing
	// is cached), the trees an ingest stream deletes first, and otherwise
	// the warmed-up system.
	prepare := func(name string) error {
		if cfg.spec.bigSet {
			if err := s.reopen(); err != nil {
				return err
			}
		}
		return s.preload(ctx, fx, name+"_", 1)
	}

	heap := startHeapSampler()
	countersBefore := crimson.EngineCounters()
	var passes []passReport
	means := map[string]float64{}
	var statsBefore, statsAfter client.Stats

	var specs []passSpec
	if cfg.spec.served {
		specs = append(specs,
			passSpec{name: "client", open: func() (entrance, func()) {
				cl, httpTr := s.newClient()
				statsBefore, _ = cl.StatsCtx(ctx)
				return &clientEntrance{cl: cl}, func() {
					statsAfter, _ = cl.StatsCtx(ctx)
					httpTr.CloseIdleConnections()
				}
			}},
			passSpec{name: "server", learnsCached: true, open: func() (entrance, func()) {
				inproc := &inprocTransport{hosts: map[string]http.Handler{"primary.inproc": s.srv}, spans: tr.spans}
				var opts []client.Option
				if s.hasFollower() {
					inproc.hosts["follower.inproc"] = s.fsrv
					opts = append(opts, client.WithReplicas("http://follower.inproc"), client.WithReadYourWrites())
				}
				cl := client.New("http://primary.inproc", &http.Client{Transport: inproc}, opts...)
				return &clientEntrance{cl: cl, inproc: inproc}, func() {}
			}})
	}
	specs = append(specs,
		passSpec{name: "crimson", belowServer: true, open: func() (entrance, func()) {
			return &facadeEntrance{read: s.readRepo(), write: s.repo, spans: tr.spans}, func() {}
		}},
		passSpec{name: "treestore", belowServer: true, open: func() (entrance, func()) {
			te := newTreestoreEntrance(fx, s.readRepo(), s.repo)
			return te, te.close
		}})
	var allocs uint64
	for i, ps := range specs {
		if err := prepare(ps.name); err != nil {
			return nil, err
		}
		ent, done := ps.open()
		a0 := readMetric(heapAllocs)
		// The outermost pass records spans for every other block only: the
		// two halves share one system state and one mix, so their rates
		// differ by the cost of tracing and nothing else.
		pr, err := tr.pass(ctx, ps, ent, i == 0)
		if i == 0 {
			allocs = readMetric(heapAllocs) - a0
		}
		done()
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
		means[ps.name] = pr.MeanMS
	}
	top, treePass := passes[0], passes[len(passes)-1]
	// newick's share of the crimson pass: the parse spans of its loads.
	newickMS := ms(tr.spans.selfTime()["crimson/newick.parse"]) / float64(tr.nOps)

	var lagP50, lagP99 float64
	writes := 0
	for _, p := range passes {
		writes += p.Writes
	}
	if s.hasFollower() {
		probes := int(125 * cfg.seconds)
		if lagP50, lagP99, err = replProbe(ctx, s, fx, probes); err != nil {
			return nil, err
		}
		writes += probes
	}
	all := counterDelta(countersBefore, crimson.EngineCounters())
	peakHeap := heap.finish()
	pageFile := s.pageFile()
	if err := s.repo.Checkpoint(); err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	var fileBytes int64
	if st, err := os.Stat(pageFile); err == nil {
		fileBytes = st.Size()
	}
	getNS, scanNS, err := relstoreProbe(ctx, pageFile, fx.resident[0])
	if err != nil {
		return nil, err
	}
	commitMS, err := commitProbe(filepath.Join(dir, "scratch.db"))
	if err != nil {
		return nil, err
	}
	body := fx.resident[0].body
	if fx.churn != nil {
		body = fx.churn[0].body
	}
	parseMBs, err := newickProbe(body)
	if err != nil {
		return nil, err
	}
	paper, err := paperCounts(cfg.sc.leaves, cfg.seed)
	if err != nil {
		return nil, err
	}

	// Layer self times: differences of adjacent passes' per-op means. A
	// mean, not a median, because only means add: the rows then sum to
	// the top pass's mean by construction (checked below), and a closed
	// loop's throughput is one client over that mean.
	self := map[string]float64{
		"client":    means["client"] - means["server"],
		"server":    means["server"] - means["crimson"],
		"crimson":   means["crimson"] - means["treestore"] - newickMS,
		"newick":    newickMS,
		"treestore": means["treestore"],
	}
	if !cfg.spec.served {
		self["client"], self["server"] = 0, 0
	}
	sum := self["client"] + self["server"] + self["crimson"] + self["newick"] + self["treestore"]
	rep.LayerSum = &layerSum{SumMS: sum, TopMeanMS: top.MeanMS, Ratio: sum / top.MeanMS}

	n := float64(tr.nOps)
	tc := top.Counters
	nodes := 0
	for _, tf := range fx.resident {
		nodes += tf.tree.NumNodes()
	}
	if fx.small != nil {
		nodes += fx.small.tree.NumNodes()
	}
	hits, misses := statsAfter.CacheHits-statsBefore.CacheHits, statsAfter.CacheMisses-statsBefore.CacheMisses
	rep.Layers = map[string]metric{
		"client.self_ms":                 {self["client"], "ms"},
		"server.self_ms":                 {self["server"], "ms"},
		"server.result_cache_hit_ratio":  {ratio(hits, hits+misses), "ratio"},
		"crimson.self_ms":                {self["crimson"], "ms"},
		"newick.self_ms":                 {self["newick"], "ms"},
		"newick.parse_mb_per_s":          {parseMBs, "MB/s"},
		"treestore.self_ms":              {self["treestore"], "ms"},
		"relstore.rows_scanned_per_op":   {float64(tc["rows_scanned"]) / n, "count"},
		"relstore.cells_decoded_per_op":  {float64(tc["cells_decoded"]) / n, "count"},
		"relstore.get_ns_per_row":        {getNS, "ns"},
		"relstore.scan_ns_per_row":       {scanNS, "ns"},
		"storage.btree_descents_per_op":  {float64(tc["btree_descents"]) / n, "count"},
		"storage.pool_hit_ratio":         {ratio(tc["pool_hits"], tc["pool_hits"]+tc["pool_misses"]), "ratio"},
		"storage.pages_read_per_op":      {float64(tc["pages_read"]) / n, "count"},
		"storage.read_cache_hit_ratio":   {ratio(tc["read_cache_hits"], tc["read_cache_hits"]+tc["read_cache_misses"]), "ratio"},
		"storage.wal_bytes_per_commit":   {ratio(all["wal_bytes"], all["commits"]), "B"},
		"storage.fsyncs_per_commit":      {ratio(all["wal_syncs"], all["commits"]), "count"},
		"storage.commit_ms":              {commitMS, "ms"},
		"storage.checkpoint_runs":        {float64(all["checkpoint_runs"]), "count"},
		"storage.checkpoint_bytes":       {float64(all["checkpoint_bytes"]), "B"},
		"storage.file_bytes_per_node":    {float64(fileBytes) / float64(nodes), "B"},
		"repl.apply_lag_p50_ms":          {lagP50, "ms"},
		"repl.apply_lag_p99_ms":          {lagP99, "ms"},
		"repl.bytes_shipped_per_write":   {ratio(all["repl_bytes_shipped"], int64(writes)), "B"},
		"process.allocs_per_op":          {float64(allocs) / n, "count"},
		"process.peak_heap_mb":           {float64(peakHeap) / (1 << 20), "MB"},
		"harness.trace_overhead_frac":    {top.TraceOverheadFrac, "ratio"},
		"paper.label_bytes_per_node.f4":  {paper[4].labelBytes, "B"},
		"paper.label_bytes_per_node.f16": {paper[16].labelBytes, "B"},
		"paper.label_bytes_per_node.f64": {paper[64].labelBytes, "B"},
		"paper.layers.f4":                {paper[4].layers, "count"},
		"paper.layers.f16":               {paper[16].layers, "count"},
		"paper.layers.f64":               {paper[64].layers, "count"},
	}
	for _, kind := range []opKind{opLCA, opProject, opClade, opSample, opMatch, opExport, opLoad, opDelete} {
		v := treePass.OpStats[kind.String()].MeanMS
		if kind == opSample && v == 0 {
			v = treePass.OpStats[opSampleTime.String()].MeanMS
		}
		rep.Layers["treestore.op_ms."+kind.String()] = metric{v, "ms"}
	}

	rep.Passes = passes
	rep.Ops = top.OpStats
	rep.Counters = tc
	rep.Attempted = 0
	for _, p := range passes {
		rep.Attempted += p.Executed
	}
	rep.Verified = tr.verified
	if keepSpans {
		rep.Spans = tr.spans.spans
	}
	return rep, nil
}

// replProbe measures apply lag directly: write on the primary, then read
// the same record from the follower fenced at the epoch that write
// published. The read's latency is the lag that write experienced.
func replProbe(ctx context.Context, s *sut, fx *fixture, n int) (p50, p99 float64, err error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	pcl, fcl := client.New(s.primaryURL(), hc), client.New(s.followerURL(), hc)
	tree := fx.resident[0]
	lags := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := tree.leaves[i%len(tree.leaves)].Name
		data := payload(uint64(1<<32 + i))
		if err := pcl.PutSpeciesDataCtx(ctx, tree.name, sp, "seq:probe", data); err != nil {
			return 0, 0, fmt.Errorf("perfbench: repl probe write: %w", err)
		}
		t0 := time.Now()
		got, err := fcl.SpeciesDataCtx(client.MinEpochContext(ctx, pcl.LastEpochs()), tree.name, sp, "seq:probe")
		lags = append(lags, ms(time.Since(t0)))
		if err != nil || string(got) != string(data) {
			return 0, 0, fmt.Errorf("perfbench: repl probe: fenced follower read of %s: %v", sp, err)
		}
	}
	st := latStatsOf(lags)
	return st.P50MS, st.TailMS, nil
}

const probeReps = 200

// relstoreProbe times the two relstore access paths on the stopped
// system's page file: a batched point read of 50 keys and a 128-row range
// scan on the resident tree's node relation.
func relstoreProbe(ctx context.Context, pageFile string, tf *treeFix) (getNS, scanNS float64, err error) {
	db, err := relstore.OpenDB(pageFile)
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	db.Store().SetReadCacheBytes(serveReadCacheMB << 20)
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("nodes_" + tf.name)
	if err != nil {
		return 0, 0, err
	}
	const batch, scanRows = 50, 128
	nodes := tf.tree.NumNodes()
	rng := rand.New(rand.NewSource(42))
	gets, scans := make([]float64, probeReps), make([]float64, probeReps)
	for r := 0; r < probeReps; r++ {
		keys := make([]relstore.Value, batch)
		for i := range keys {
			keys[i] = relstore.Int(int64(rng.Intn(nodes)))
		}
		t0 := time.Now()
		_, found, err := view.GetBatchCtx(ctx, keys)
		gets[r] = float64(time.Since(t0)) / batch
		if err != nil || !found[0] {
			return 0, 0, fmt.Errorf("perfbench: relstore probe: batched get: found=%v err=%v", found[0], err)
		}
		lo := rng.Intn(nodes - scanRows)
		rows := 0
		t0 = time.Now()
		err = view.ScanRangeCtx(ctx, relstore.Int(int64(lo)), relstore.Int(int64(lo+scanRows)), func(relstore.Row) (bool, error) {
			rows++
			return true, nil
		})
		scans[r] = float64(time.Since(t0)) / scanRows
		if err != nil || rows != scanRows {
			return 0, 0, fmt.Errorf("perfbench: relstore probe: range scan saw %d rows, want %d (err=%v)", rows, scanRows, err)
		}
	}
	return median(gets), median(scans), nil
}

// commitProbe times a durable commit of a small dirty set (eight 64-byte
// puts) on a scratch store: WAL append, fsync, epoch publish.
func commitProbe(path string) (float64, error) {
	st, err := storage.Open(path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	bt, err := storage.NewBTree(st)
	if err != nil {
		return 0, err
	}
	val := make([]byte, 64)
	times := make([]float64, probeReps)
	for r := range times {
		for i := 0; i < 8; i++ {
			if err := bt.Put([]byte(fmt.Sprintf("key-%06d-%d", r, i)), val); err != nil {
				return 0, err
			}
		}
		st.SetRoot(1, bt.Root())
		t0 := time.Now()
		if err := st.Commit(); err != nil {
			return 0, err
		}
		times[r] = ms(time.Since(t0))
	}
	return median(times), nil
}

// newickProbe times the parser on an upload body, in MB/s.
func newickProbe(body string) (float64, error) {
	rates := make([]float64, 9)
	for i := range rates {
		t0 := time.Now()
		if _, err := crimson.ParseNewickWorkers(body, 0); err != nil {
			return 0, err
		}
		rates[i] = float64(len(body)) / 1e6 / time.Since(t0).Seconds()
	}
	return median(rates), nil
}

type paperCount struct{ labelBytes, layers float64 }

// paperCounts are the paper's E5/E14 numbers on the deep caterpillar:
// label bytes per node and layer count at f = 4, 16, 64. Label size is
// bounded by f, not by depth; the counts are exact for a given seed.
func paperCounts(leaves int, seed int64) (map[int]paperCount, error) {
	t, err := treegen.Caterpillar(leaves, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	out := map[int]paperCount{}
	for _, f := range []int{4, 16, 64} {
		ix, err := core.Build(t, f)
		if err != nil {
			return nil, err
		}
		out[f] = paperCount{float64(ix.TotalLabelBytes()) / float64(t.NumNodes()), float64(ix.NumLayers())}
	}
	return out, nil
}
