package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	spec    *workloadSpec
	sc      scale
	seed    int64
	seconds float64
	tmp     string // directory the systems under test live in
}

// opTiming is one executed op of the measured phase.
type opTiming struct {
	end  time.Duration // completion time since the phase began
	lat  time.Duration
	kind opKind
}

// keptOp is a (query, response) pair set aside for the oracle.
type keptOp struct {
	o   op
	res result
}

// clientLog is what one closed-loop client records.
type clientLog struct {
	samples  []opTiming
	kept     []keptOp
	failed   int
	failures []string // the first few, for the report
}

func (l *clientLog) fail(o *op, err error) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf("%s %s: %v", o.kind, o.tree, err))
	}
}

// drive runs one closed-loop client: next op, wait for the reply, check
// its shape, repeat until more returns false. Ops are generated between
// requests, outside the latency timer. Every verifyEvery-th op is kept for
// the oracle, so checking costs nothing inside the timed window.
func drive(ctx context.Context, fx *fixture, ent entrance, st *stream, begin time.Time, log *clientLog, more func(done int) bool) {
	for i := 0; more(i); i++ {
		o := st.next()
		res, lat, err := ent.do(ctx, &o)
		log.samples = append(log.samples, opTiming{end: time.Since(begin), lat: lat, kind: o.kind})
		if err == nil {
			err = shapeCheck(fx, &o, &res)
		}
		if err != nil {
			log.fail(&o, err)
			continue
		}
		if i%verifyEvery == 0 {
			log.kept = append(log.kept, keptOp{o, res})
		}
	}
}

// topEntrance builds the entrance a workload's callers use: package client
// over TCP for served workloads, the facade for deep_inproc.
func topEntrance(s *sut, fx *fixture) (entrance, func()) {
	if !fx.spec.served {
		return &facadeEntrance{read: s.repo, write: s.repo}, func() {}
	}
	cl, tr := s.newClient()
	return &clientEntrance{cl: cl}, tr.CloseIdleConnections
}

// runClients drives n closed-loop clients to completion. On repl_rw the
// clients share one client.Client (its epoch fence is per client object);
// elsewhere each has its own connection.
func runClients(ctx context.Context, s *sut, fx *fixture, n int, streams []*stream, more func(client, done int) bool) []*clientLog {
	logs := make([]*clientLog, n)
	ents := make([]entrance, n)
	for c := range ents {
		if c > 0 && fx.spec.follower {
			ents[c] = ents[0]
			continue
		}
		ent, closeIdle := topEntrance(s, fx)
		defer closeIdle()
		ents[c] = ent
	}
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(ctx, fx, ents[c], streams[c], begin, logs[c], func(done int) bool { return more(c, done) })
		}()
	}
	wg.Wait()
	return logs
}

// setUp brings the system under test to ready: open the repository, load
// every resident tree through the path the workload uses, attach the
// follower, Checkpoint(), and warm up with a fixed number of ops of the
// workload's own mix. Its wall time is setup_s; nothing the harness does
// for itself (tree generation, oracle building) happens in here.
func setUp(ctx context.Context, cfg runConfig, fx *fixture, dir string, clients int) (*sut, time.Duration, error) {
	t0 := time.Now()
	s, err := startPrimary(dir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*sut, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	resident := fx.resident
	if fx.small != nil {
		resident = append(append([]*treeFix(nil), resident...), fx.small)
	}
	if err := s.load(ctx, fx, resident); err != nil {
		return fail(err)
	}
	for _, prefix := range []string{"w", "m"} { // the warm-up's and the measured phase's first deletes
		if err := s.preload(ctx, fx, prefix, clients); err != nil {
			return fail(err)
		}
	}
	if fx.spec.follower {
		if err := s.startFollower(); err != nil {
			return fail(err)
		}
	}
	if err := s.repo.Checkpoint(); err != nil {
		return fail(err)
	}
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(fx, cfg.seed+1<<20, c, "w")
	}
	warm := fx.spec.warm * fx.spec.blockLen()
	if fx.spec.hotPool {
		// Touch every pooled query once so the measured phase starts with
		// the result cache already holding the whole pool.
		var all []op
		for _, qs := range streams[0].gen.pool {
			all = append(all, qs...)
		}
		logs := runClients(ctx, s, fx, 1, []*stream{replay(all)}, func(_, done int) bool { return done < len(all) })
		if logs[0].failed > 0 {
			return fail(fmt.Errorf("perfbench: warm-up: %s", logs[0].failures[0]))
		}
	}
	logs := runClients(ctx, s, fx, clients, streams, func(_, done int) bool { return done < warm })
	for _, l := range logs {
		if l.failed > 0 {
			return fail(fmt.Errorf("perfbench: warm-up: %s", l.failures[0]))
		}
	}
	return s, time.Since(t0), nil
}

// runUntraced is the end-to-end measurement: set up (several times, for a
// median), then numClients closed-loop clients for cfg.seconds, then the
// oracle check of the sampled ops.
func runUntraced(ctx context.Context, cfg runConfig) (*workloadReport, error) {
	rep := newWorkloadReport(cfg)
	t0 := time.Now()
	fx, err := newFixture(cfg.spec, cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.HarnessGenS = time.Since(t0).Seconds()
	rep.StreamDigest = streamDigest(fx, cfg.seed, 64)

	// Set-up runs sc.setups times on fresh directories; the last system is
	// the one measured. setup_s is the median, so one slow fsync or page
	// fault does not decide it.
	var s *sut
	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(s.dir)
		}
		dir, err := workDir(cfg.tmp, i)
		if err != nil {
			return nil, err
		}
		var d time.Duration
		if s, d, err = setUp(ctx, cfg, fx, dir, numClients); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		s.stop()
		os.RemoveAll(s.dir)
	}()
	rep.sizes(s, fx)

	streams := make([]*stream, numClients)
	for c := range streams {
		streams[c] = newStream(fx, cfg.seed, c, "m")
	}
	phase := time.Duration(cfg.seconds * float64(time.Second))
	deadline := time.Now().Add(phase)
	logs := runClients(ctx, s, fx, numClients, streams, func(_, _ int) bool { return time.Now().Before(deadline) })

	rep.endToEnd(logs, phase, cfg.spec.tail, median(setups))
	rep.SetupRunsS = setups
	rep.verify(fx, logs)
	return rep, nil
}
