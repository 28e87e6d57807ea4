// Command perfbench is Crimson's benchmark: it starts crimsond in-process
// with the `crimson serve` defaults, drives it through package client from
// closed-loop client goroutines, verifies the answers against the in-memory
// engine, and prints every metric by name and unit. A traced run replays
// the same seeded ops at each layer's entrance and reports per-layer
// numbers. README.md has the metric glossary and the workload table.
//
//	go run . [-workload name[,name]] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-report out.json]
//	go run . compare [-bench BENCHMARK.json] a.json b.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are one invocation's flags.
type options struct {
	workloads []*workloadSpec
	seed      int64
	seconds   float64
	traced    bool
	quick     bool
	report    string
	tmp       string
	// stdout takes one result line per workload, stderr the table.
	stdout, stderr io.Writer
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "measured phase per workload, seconds (default 10; 1 with -quick)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer passes instead of the end-to-end measurement")
	quick := fs.Bool("quick", false, "tiny trees and a 1 s phase: exercises every workload's set-up, mix, checks and teardown")
	report := fs.String("report", "", "write the full JSON report (spans included when traced) to this file")
	tmp := fs.String("tmp", ".bench_build", "directory the systems under test live in; removed afterwards")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o := &options{seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick, report: *report,
		stdout: os.Stdout, stderr: os.Stderr}
	if o.seconds == 0 {
		o.seconds = 10
		if o.quick {
			o.seconds = 1
		}
	}
	if o.seconds < 0.5 {
		return nil, fmt.Errorf("-seconds %g: the measured phase is cut into %d segments and needs at least half a second", o.seconds, segments)
	}
	if *names == "" {
		for i := range workloads {
			o.workloads = append(o.workloads, &workloads[i])
		}
	}
	for _, name := range strings.FieldsFunc(*names, func(r rune) bool { return r == ',' }) {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		o.workloads = append(o.workloads, w)
	}
	abs, err := filepath.Abs(*tmp)
	if err != nil {
		return nil, err
	}
	o.tmp = filepath.Join(abs, fmt.Sprintf("perfbench-%d", os.Getpid()))
	return o, nil
}

func benchMain(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.tmp)
	rep, err := runAll(context.Background(), o)
	if rep != nil && o.report != "" {
		if werr := writeReport(o.report, rep); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// runAll runs the selected workloads one after another. The table goes to
// stderr; stdout carries one result line per workload, the last line being
// the last workload's.
func runAll(ctx context.Context, o *options) (*report, error) {
	sc := fullScale
	if o.quick {
		sc = quickScale
	}
	rep := &report{Env: newEnv(o.tmp, o.seed, o.seconds, o.traced, o.quick)}
	fmt.Fprintf(o.stderr, "perfbench: commit %s, %s, nproc %d, GOMAXPROCS %d, tmp on %s, seed %d, %g s per workload, traced=%v quick=%v\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.TempFS, o.seed, o.seconds, o.traced, o.quick)
	failed := 0
	for _, spec := range o.workloads {
		cfg := runConfig{spec: spec, sc: sc, seed: o.seed, seconds: o.seconds, tmp: o.tmp}
		var wr *workloadReport
		var err error
		if o.traced {
			wr, err = runTraced(ctx, cfg, o.report != "")
		} else {
			wr, err = runUntraced(ctx, cfg)
		}
		if err != nil {
			return rep, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		wr.print(o.stderr)
		fmt.Fprintln(o.stdout, wr.contractLine(o.traced))
		failed += wr.Failed
	}
	if failed > 0 {
		return rep, fmt.Errorf("%d operation(s) failed or answered wrongly", failed)
	}
	return rep, nil
}
