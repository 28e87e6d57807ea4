package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"

	crimson "repro"
	"repro/internal/core"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/treegen"
)

// scale fixes the input sizes. Every tree stays at or below 20k leaves:
// treegen.Yule is quadratic (20k leaves 0.33 s, 200k leaves 94 s on the
// reference box), so working-set size is reached by tree count.
type scale struct {
	leaves      int // resident tree
	coldTrees   int // resident trees of served_cold
	smallLeaves int // the export target of served_cold
	churnLeaves int // trees loaded and deleted by ingest_churn
	setups      int // set-ups per run; setup_s is their median
}

var (
	fullScale  = scale{leaves: 20000, coldTrees: 8, smallLeaves: 500, churnLeaves: 2000, setups: 3}
	quickScale = scale{leaves: 300, coldTrees: 2, smallLeaves: 60, churnLeaves: 120, setups: 1}
)

// Query sizes. The server appends one history row per uncached read, and
// the engine's B+tree splits leaves by cell count, not bytes: a run of
// 450-1024 B rows after many small ones can overflow a page and crash
// crimsond (found while building this benchmark, see README). Every query
// below records a row that is either under 300 B or over 1024 B (stored
// out of line), which cannot trip it.
const (
	projectHotK = 20  // served_hot projection size
	projectK    = 50  // everywhere else
	cladeNames  = 81  // species named by a clade query: 80 adjacent leaves + the clade's last
	cladeMin    = 80  // a clade target's leaf count lies in [cladeMin, cladeMax]
	cladeMax    = 160 //
	sampleK     = 100 // served_cold sample size
	sampleTimeK = 50  // deep_inproc time-constrained sample size
	putBytes    = 256
	verifyEvery = 16 // one op in verifyEvery is kept for the oracle check
)

const numClients = 2

// workloadSpec declares one workload: its mix by count and the reason it
// exists. The mix is one block; streams repeat it forever, shuffled within
// the block when the order carries no meaning, so both clients execute the
// same proportions on every commit.
type workloadSpec struct {
	Name     string
	Why      string
	mix      []mixEntry
	ordered  bool // the block is a cycle whose order matters
	served   bool // driven over HTTP through package client (else the facade)
	follower bool // a streaming follower serves the reads
	hotPool  bool // queries come from a small fixed pool (fits the result cache)
	bigSet   bool // sc.coldTrees resident trees plus a small one: outgrows the engine's caches
	deep     bool // the resident tree is a caterpillar
	churn    bool // the stream loads and deletes trees of its own
	// warm is the number of mix blocks each client runs as warm-up at the
	// end of set-up: a fixed amount of work, so set-up time tracks how fast
	// the system does it.
	warm int
	// tail is the percentile reported as p99_ms. It is fixed per workload,
	// at the highest level that leaves ten samples beyond it in every
	// segment at this workload's rate and sits inside the heaviest op
	// class: a percentile chosen from the count at hand would hop between
	// levels from run to run.
	tail float64
	// traceRate is the ops per measured second one traced pass replays; it
	// is a constant, not a calibration, so a traced run does the same work
	// every time and its counter deltas can repeat exactly.
	traceRate float64
}

type mixEntry struct {
	kind opKind
	n    int
}

var workloads = []workloadSpec{
	{
		Name:   "served_hot",
		Why:    "one tree that fits the pool, 236 repeated queries inside the result cache: client+server do nearly all the work, so an HTTP/JSON/handler change shows here and a decode or B+tree change must not",
		mix:    []mixEntry{{opLCA, 10}, {opProject, 5}, {opClade, 3}, {opInfo, 1}, {opTrees, 1}},
		served: true, hotPool: true, warm: 50, tail: 0.95, traceRate: 1200,
	},
	{
		Name:   "served_cold",
		Why:    "eight trees (3.4x the buffer pool), every query unique: the result cache cannot help, so treestore/relstore/storage reads dominate and client+server are a few percent",
		mix:    []mixEntry{{opLCA, 8}, {opProject, 5}, {opClade, 3}, {opSample, 2}, {opMatch, 1}, {opExport, 1}},
		served: true, bigSet: true, warm: 5, tail: 0.95, traceRate: 40,
	},
	{
		Name: "deep_inproc",
		Why:  "the paper's deep-tree case, a depth-20k caterpillar through the facade with no HTTP: the layered-LCA walk is the whole cost, and a server-side change predicts no movement",
		mix:  []mixEntry{{opLCA, 6}, {opProject, 2}, {opSampleTime, 2}},
		deep: true, warm: 2, tail: 0.90, traceRate: 25,
	},
	{
		Name:    "ingest_churn",
		Why:     "load/delete/put cycles: the storage layer in the write direction (COW pages, WAL, group commit, checkpoints) with newick and bulk insert, so a read gain paid for with write amplification shows here",
		mix:     []mixEntry{{opLoad, 1}, {opDelete, 1}, {opPut, 14}, {opGet, 1}, {opList, 1}},
		ordered: true, served: true, churn: true, warm: 2, tail: 0.97, traceRate: 120,
	},
	{
		Name:    "repl_rw",
		Why:     "a primary and a streaming follower: each write is followed by unique reads on the follower fenced at the write's epoch, so MVCC, publisher, follower apply and the fence sit in one number",
		mix:     []mixEntry{{opPut, 1}, {opLCA, 1}, {opProject, 1}, {opLCA, 1}, {opClade, 1}},
		ordered: true, served: true, follower: true, warm: 20, tail: 0.95, traceRate: 60,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// treeFix is one generated tree with the in-memory engine built over it:
// the upload body, and the oracle that answers the same queries.
type treeFix struct {
	name   string
	body   string
	tree   *phylo.Tree // parsed back from body, so preorder ids match the stored ones
	ix     *core.Index
	plan   *project.Planner
	leaves []*phylo.Node // preorder
	clades []cladeFix    // clade query targets: leaf count in [cladeMin, cladeMax]
	height float64       // largest root distance
}

// cladeFix is a subtree by its root's preorder id and leaf count.
type cladeFix struct{ root, leaves int }

// fixture is everything the harness generates from the seed before the
// system under test exists.
type fixture struct {
	spec     *workloadSpec
	resident []*treeFix // loaded in set-up; queries pick among them
	small    *treeFix   // served_cold's export target
	churn    []*treeFix // upload bodies ingest_churn rotates through
	byName   map[string]*treeFix
}

func (fx *fixture) ids(tree string, names []string) []int {
	t := fx.byName[tree].tree
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = t.NodeByName(name).ID
	}
	return ids
}

func newTreeFix(name string, gen *phylo.Tree) (*treeFix, error) {
	body := crimson.FormatNewick(gen)
	t, err := crimson.ParseNewick(body)
	if err != nil {
		return nil, fmt.Errorf("perfbench: re-parsing generated tree %s: %w", name, err)
	}
	t.Reindex()
	ix, err := core.Build(t, crimson.DefaultFanout)
	if err != nil {
		return nil, err
	}
	tf := &treeFix{name: name, body: body, tree: t, ix: ix, plan: project.NewPlanner(t, ix), leaves: t.Leaves()}
	for _, d := range t.RootDistances() {
		tf.height = max(tf.height, d)
	}
	// Leaf counts bottom-up: preorder puts every child after its parent.
	nodes := t.Nodes()
	count := make([]int, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n.IsLeaf() {
			count[i] = 1
		}
		if n.Parent != nil {
			count[n.Parent.ID] += count[i]
		}
	}
	for i, n := range nodes {
		if count[i] >= cladeMin && count[i] <= cladeMax {
			tf.clades = append(tf.clades, cladeFix{root: n.ID, leaves: count[i]})
		}
	}
	return tf, nil
}

// newFixture generates the workload's trees. Each tree has its own source
// seeded from (seed, index), so the trees are the same whether or not they
// are generated concurrently.
func newFixture(spec *workloadSpec, sc scale, seed int64) (*fixture, error) {
	type job struct {
		name   string
		leaves int
		deep   bool
		dst    **treeFix
	}
	fx := &fixture{spec: spec, byName: map[string]*treeFix{}}
	var jobs []job
	nResident := 1
	if spec.bigSet {
		nResident = sc.coldTrees
	}
	fx.resident = make([]*treeFix, nResident)
	for i := range fx.resident {
		jobs = append(jobs, job{fmt.Sprintf("gold%d", i), sc.leaves, spec.deep, &fx.resident[i]})
	}
	if spec.bigSet {
		jobs = append(jobs, job{"small", sc.smallLeaves, false, &fx.small})
	}
	if spec.churn {
		fx.churn = make([]*treeFix, 4)
		for i := range fx.churn {
			jobs = append(jobs, job{fmt.Sprintf("body%d", i), sc.churnLeaves, false, &fx.churn[i]})
		}
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			var gen *phylo.Tree
			var err error
			if j.deep {
				gen, err = treegen.Caterpillar(j.leaves, rng)
			} else {
				gen, err = treegen.Yule(j.leaves, 1.0, rng)
			}
			if err == nil {
				*j.dst, err = newTreeFix(j.name, gen)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, tf := range fx.resident {
		fx.byName[tf.name] = tf
		if len(tf.clades) == 0 && !spec.deep {
			return nil, fmt.Errorf("perfbench: tree %s has no clade with %d-%d leaves", tf.name, cladeMin, cladeMax)
		}
	}
	if fx.small != nil {
		fx.byName[fx.small.name] = fx.small
	}
	return fx, nil
}

// opGen generates one client's ops. prefix names the trees the client
// loads, so replays of the same stream (traced passes) do not collide.
type opGen struct {
	fx     *fixture
	rng    *rand.Rand
	client int
	prefix string

	pool  [numOpKinds][]op // hotPool: the fixed queries, by kind
	zipf  [numOpKinds]*rand.Zipf
	cycle int               // ingest_churn: cycles started
	vers  map[string]uint64 // species -> version last put
	last  []string          // species put in this cycle
}

func newOpGen(fx *fixture, seed int64, client int, prefix string) *opGen {
	g := &opGen{fx: fx, client: client, prefix: prefix, vers: map[string]uint64{},
		rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1))}
	if fx.spec.hotPool {
		// The pool is the same for every client (its own source, seeded
		// without the client index); only the draws differ.
		pg := &opGen{fx: fx, rng: rand.New(rand.NewSource(seed*104729 + 17))}
		const poolUnit = 13 // pool queries per unit of mix count: 10 LCA units -> 130 queries
		for _, m := range fx.spec.mix {
			n := m.n * poolUnit
			if m.kind == opInfo || m.kind == opTrees {
				n = 1 // one tree: one distinct query each
			}
			for i := 0; i < n; i++ {
				g.pool[m.kind] = append(g.pool[m.kind], pg.fresh(m.kind))
			}
			if n > 1 {
				g.zipf[m.kind] = rand.NewZipf(g.rng, 1.1, 1, uint64(n-1))
			}
		}
	}
	return g
}

func (g *opGen) pickLeaves(tf *treeFix, k int) []string {
	seen := make(map[int]bool, k)
	names := make([]string, 0, k)
	for len(names) < k {
		i := g.rng.Intn(len(tf.leaves))
		if !seen[i] {
			seen[i] = true
			names = append(names, tf.leaves[i].Name)
		}
	}
	return names
}

// churnName names the tree a client loads in a given cycle; cycles -2 and
// -1 are the two trees set-up pre-loads so that every cycle has a delete.
func churnName(prefix string, client, cycle int) string {
	return fmt.Sprintf("%sc%d_%06d", prefix, client, cycle+2)
}

// mySpecies returns the i-th species this client owns on the resident tree
// (clients write disjoint species, so a get's expected value is known).
func (g *opGen) mySpecies(i int) string {
	leaves := g.fx.resident[0].leaves
	return leaves[(i*numClients+g.client)%len(leaves)].Name
}

func payload(version uint64) []byte {
	b := make([]byte, putBytes)
	binary.LittleEndian.PutUint64(b, version)
	for i := 8; i < len(b); i++ {
		b[i] = byte(version) + byte(i)
	}
	return b
}

// next returns the op for one slot of the mix.
func (g *opGen) next(kind opKind) op {
	if g.fx.spec.hotPool {
		qs := g.pool[kind]
		if z := g.zipf[kind]; z != nil {
			return qs[z.Uint64()]
		}
		return qs[0]
	}
	return g.fresh(kind)
}

func (g *opGen) fresh(kind opKind) op {
	fx := g.fx
	tf := fx.resident[g.rng.Intn(len(fx.resident))]
	o := op{kind: kind, tree: tf.name}
	switch kind {
	case opLCA:
		o.names = g.pickLeaves(tf, 2)
	case opProject:
		k := projectK
		if fx.spec.hotPool {
			k = projectHotK
		}
		o.names = g.pickLeaves(tf, k)
	case opClade:
		// A clade with 80-160 leaves, named by its first 80 leaves and its
		// last: the spanning clade is exactly that subtree, so the answer's
		// size is bounded however the leaves fall.
		c := tf.clades[g.rng.Intn(len(tf.clades))]
		under := make([]string, 0, c.leaves)
		for _, n := range tf.tree.Nodes()[c.root:] {
			if n.IsLeaf() {
				under = append(under, n.Name)
				if len(under) == c.leaves {
					break
				}
			}
		}
		o.names = append(under[:cladeNames-1:cladeNames-1], under[len(under)-1])
	case opSample:
		o.k, o.seed = sampleK, g.rng.Int63n(1<<40)+1
	case opSampleTime:
		// On a caterpillar about a twentieth of the leaves lie beyond 0.95
		// of the height: enough to draw from, few enough that one sample
		// does not outweigh the rest of the mix.
		o.k, o.seed = min(sampleTimeK, len(tf.leaves)/50), g.rng.Int63n(1<<40)+1
		o.time = tf.height * (0.94 + 0.03*g.rng.Float64())
	case opInfo, opTrees:
	case opMatch:
		p, err := tf.plan.ProjectNames(g.pickLeaves(tf, projectK))
		if err != nil {
			panic("perfbench: oracle projection for a match pattern: " + err.Error())
		}
		o.pattern = p
	case opExport:
		o.tree = fx.small.name
	case opLoad:
		g.cycle++
		g.last = g.last[:0]
		o.tree = churnName(g.prefix, g.client, g.cycle-1)
		o.body = fx.churn[(g.cycle+g.client)%len(fx.churn)].body
	case opDelete:
		o.tree = churnName(g.prefix, g.client, g.cycle-3)
	case opPut:
		sp := g.mySpecies(g.rng.Intn(4096))
		g.vers[sp]++
		if len(g.last) < 16 { // the reads of a cycle pick among its first puts
			g.last = append(g.last, sp)
		}
		o.names, o.data = []string{sp}, payload(g.vers[sp])
	case opGet, opList:
		sp := g.last[g.rng.Intn(len(g.last))]
		o.names, o.data = []string{sp}, payload(g.vers[sp])
	}
	return o
}

// stream is one client's endless op sequence: the mix block repeated,
// shuffled inside each block unless the block is an ordered cycle.
type stream struct {
	gen   *opGen
	block []opKind
	order []int
	pos   int
	queue []op // a replay stream hands these out instead of generating
}

// replay returns a stream that yields exactly ops, in order.
func replay(ops []op) *stream { return &stream{queue: ops} }

// blockLen is the number of ops in one block of the mix.
func (w *workloadSpec) blockLen() int {
	n := 0
	for _, m := range w.mix {
		n += m.n
	}
	return n
}

func newStream(fx *fixture, seed int64, client int, prefix string) *stream {
	s := &stream{gen: newOpGen(fx, seed, client, prefix)}
	for _, m := range fx.spec.mix {
		for i := 0; i < m.n; i++ {
			s.block = append(s.block, m.kind)
		}
	}
	s.order = make([]int, len(s.block))
	for i := range s.order {
		s.order[i] = i
	}
	s.pos = len(s.block)
	return s
}

func (s *stream) next() op {
	if s.queue != nil {
		s.pos++
		return s.queue[s.pos-1]
	}
	if s.pos == len(s.block) {
		s.pos = 0
		if !s.gen.fx.spec.ordered {
			s.gen.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		}
	}
	kind := s.block[s.order[s.pos]]
	s.pos++
	return s.gen.next(kind)
}

// streamDigest hashes the first n ops of every client's stream: the same
// seed must give the same inputs, a different seed different ones.
func streamDigest(fx *fixture, seed int64, n int) string {
	h := sha256.New()
	for c := 0; c < numClients; c++ {
		s := newStream(fx, seed, c, "")
		for i := 0; i < n; i++ {
			o := s.next()
			fmt.Fprintln(h, o.key())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
