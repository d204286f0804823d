// tclbench is the benchmark baseline tool and regression gate.
//
// Emit (regenerate a committed baseline on a quiet host):
//
//	tclbench -emit sched             # or sim, serve, all
//	tclbench -emit sim -force        # overwrite even with contended rows
//
// Gate (compare fresh measurements against the committed baselines; the
// `make bench-gate` target wired into `make check` and CI):
//
//	tclbench -compare                # all suites, exit 1 on >10% regression
//	tclbench -compare -suite sched -threshold 0.05
//	tclbench -compare -ids fig8a     # only baseline rows matching a prefix
//
// Offline gate (compare two recorded runs without re-measuring — CI legs
// hand artifacts to each other this way, and the negative test injects a
// doctored run):
//
//	tclbench -compare -current /path/to/fresh/dir
//
// Promote (adopt baselines recorded elsewhere — typically CI artifacts from
// a genuinely multi-core runner — after validating they are clean: emitted
// at GOMAXPROCS > 1 on a host with at least that many cores, with no
// contended rows):
//
//	tclbench -promote /path/to/artifact/dir
//
// Contention profile (where do parallel sweeps wait?):
//
//	tclbench -contention             # fig8a at parallelism 1,2,4,8, top mutex stacks
//
// -compare and -emit measure each selected suite in a fresh child process
// of this tool (the parsed flags with one -suite each), so a suite's rows
// never depend on what an earlier suite left in the process, and a
// baseline and a comparison are always measured alike. Every option is a
// flag: an argument after the flags is a usage error, as is a -threshold
// outside [0, 1) (a NaN, infinite, negative or larger threshold would
// switch the gate off).
//
// Comparison policy (internal/bench): allocs/op gates on every host — a
// zero-alloc baseline must stay zero — while ns/op gates only between
// non-contended runs at equal GOMAXPROCS. The sim suite measures steady
// state (one warmup iteration, then a GC-pinned window of at least
// -mintime) and its parallel rows carry alloc_parity — parallel allocs/op
// over serial — gated everywhere against the absolute 1.05 cap. Baseline
// rows missing from the current run fail the gate too.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"bittactical/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are tclbench's parsed flags.
type options struct {
	emit, suite, ids, dir, current, promote string
	compare, force, contention              bool
	threshold                               float64
	minTime                                 time.Duration
}

// parseFlags parses a tclbench command line into a fresh flag set. It
// rejects any argument after the flags (the flag package stops at the
// first one, so the flags after it would be dropped unseen), a -threshold
// outside [0, 1) and an unknown suite name, each with a message on stderr.
func parseFlags(args []string, stderr io.Writer) (*flag.FlagSet, *options, bool) {
	fs := flag.NewFlagSet("tclbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.emit, "emit", "", "regenerate baselines: sched, sim, serve, or all")
	fs.BoolVar(&o.compare, "compare", false, "measure and compare against committed baselines; exit 1 on regression")
	fs.StringVar(&o.suite, "suite", "", "restrict to one suite (sched, sim, serve)")
	fs.Float64Var(&o.threshold, "threshold", 0.10, "fractional regression threshold, at least 0 and below 1")
	fs.BoolVar(&o.force, "force", false, "overwrite a baseline even with contended measurements")
	fs.StringVar(&o.ids, "ids", "", "comma-separated ID prefixes; only matching baseline rows are compared")
	fs.StringVar(&o.dir, "dir", ".", "directory holding the committed BENCH_*.json baselines")
	fs.StringVar(&o.current, "current", "", "compare pre-recorded BENCH_*.json from this directory instead of measuring")
	fs.StringVar(&o.promote, "promote", "", "adopt validated multi-core baselines from this directory into -dir")
	fs.DurationVar(&o.minTime, "mintime", 0, "minimum measured wall time per steady-state benchmark row (default 1s)")
	fs.BoolVar(&o.contention, "contention", false, "profile mutex contention: fig8a at parallelism 1,2,4,8 with full mutex profiling, top contended stacks to stdout")
	if err := fs.Parse(args); err != nil {
		return nil, nil, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tclbench: unexpected argument %q: every option is a -flag\n", fs.Arg(0))
		return nil, nil, false
	}
	if o.emit == "" && !o.compare && o.promote == "" && !o.contention {
		fmt.Fprintln(stderr, "tclbench: nothing to do; pass -emit <suite|all>, -compare, -promote <dir>, or -contention")
		fs.Usage()
		return nil, nil, false
	}
	// Compare gates on x > b*(1+t) and c < b*(1-t): a NaN threshold makes
	// both false, and one of 1 or more never fails a hit rate.
	if t := o.threshold; math.IsNaN(t) || t < 0 || t >= 1 {
		fmt.Fprintf(stderr, "tclbench: -threshold %v must be at least 0 and below 1\n", t)
		return nil, nil, false
	}
	for _, name := range []string{o.emit, o.suite} {
		if name != "" && selectSuites(name)[0] == nil {
			fmt.Fprintf(stderr, "tclbench: unknown suite %q\n", name)
			return nil, nil, false
		}
	}
	return fs, o, true
}

// selected returns, in suite order, the suites this command line emits,
// the suites it compares, and the suites it measures in this run: those
// it emits, and those it compares when the comparison is measured live
// rather than read from -current.
func (o *options) selected() (emitted, compared, measured []*bench.Suite) {
	if o.emit != "" {
		emitted = selectSuites(o.emit)
	}
	if o.compare {
		compared = selectSuites(o.suite)
	}
	for i := range bench.Suites {
		s := &bench.Suites[i]
		if slices.Contains(emitted, s) || (o.current == "" && slices.Contains(compared, s)) {
			measured = append(measured, s)
		}
	}
	return emitted, compared, measured
}

func run(args []string, stdout, stderr io.Writer) int {
	fs, o, ok := parseFlags(args, stderr)
	if !ok {
		return 2
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	runOpts := bench.RunOpts{MinTime: o.minTime}

	if o.contention {
		if err := bench.RunContention(logf, stdout); err != nil {
			fmt.Fprintf(stderr, "tclbench: contention: %v\n", err)
			return 2
		}
		return 0
	}

	if o.promote != "" {
		return promoteBaselines(o.promote, o.dir, o.suite, logf, stderr)
	}

	emitted, compared, measured := o.selected()
	if len(measured) > 1 {
		return runChildren(fs, measured, emitted, compared, logf, stdout, stderr)
	}

	for _, s := range emitted {
		logf("== emit %s ==", s.Name)
		f, err := s.Run(logf, runOpts)
		if err != nil {
			fmt.Fprintf(stderr, "tclbench: %s: %v\n", s.Name, err)
			return 2
		}
		path := filepath.Join(o.dir, s.File)
		if err := bench.WriteBaseline(path, f, o.force); err != nil {
			fmt.Fprintf(stderr, "tclbench: %v\n", err)
			return 2
		}
		logf("wrote %s (%d benchmarks)", path, len(f.Benchmarks))
	}

	if !o.compare {
		return 0
	}

	fail := false
	for _, s := range compared {
		baseline, err := bench.Load(filepath.Join(o.dir, s.File))
		if err != nil {
			fmt.Fprintf(stderr, "tclbench: baseline %s: %v\n", s.File, err)
			return 2
		}
		filterIDs(baseline, o.ids)
		if len(baseline.Benchmarks) == 0 {
			logf("== %s: no baseline rows match -ids %q, skipped ==", s.Name, o.ids)
			continue
		}
		var cur *bench.File
		if o.current != "" {
			cur, err = bench.Load(filepath.Join(o.current, s.File))
		} else {
			logf("== measure %s ==", s.Name)
			cur, err = s.Run(logf, runOpts)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tclbench: current %s: %v\n", s.Name, err)
			return 2
		}
		res := bench.Compare(baseline, cur, o.threshold)
		// Wall time is noisy under co-located load; a real regression
		// reproduces, a noise spike does not. When a live measurement fails
		// on ns/op alone, measure once more and keep each record's best
		// time before concluding. Alloc regressions are deterministic and
		// never retried; offline (-current) runs are never re-measured.
		if o.current == "" && res.Fail() && len(res.Missing) == 0 && nsOnly(res) {
			logf("== %s: ns/op over threshold, re-measuring to rule out noise ==", s.Name)
			again, err := s.Run(logf, runOpts)
			if err != nil {
				fmt.Fprintf(stderr, "tclbench: current %s: %v\n", s.Name, err)
				return 2
			}
			mergeBestNs(cur, again)
			res = bench.Compare(baseline, cur, o.threshold)
		}
		for _, id := range res.SkippedNs {
			logf("%s: %s: ns/op not comparable (contended or GOMAXPROCS mismatch), allocs still gated", s.Name, id)
		}
		for _, id := range res.Missing {
			fmt.Fprintf(stderr, "FAIL %s: %s missing from current run\n", s.Name, id)
		}
		for _, r := range res.Regressions {
			if r.Metric == "alloc_parity" {
				fmt.Fprintf(stderr, "FAIL %s: %s exceeds the absolute cap %.2f\n", s.Name, r, bench.AllocParityCap)
			} else {
				fmt.Fprintf(stderr, "FAIL %s: %s exceeds threshold %.0f%%\n", s.Name, r, o.threshold*100)
			}
		}
		if res.Fail() {
			fail = true
		} else {
			logf("== %s: OK (%d rows, %d ns-skipped) ==", s.Name, len(baseline.Benchmarks), len(res.SkippedNs))
		}
	}
	if fail {
		fmt.Fprintln(stderr, "tclbench: regression gate FAILED")
		return 1
	}
	logf("tclbench: regression gate passed")
	return 0
}

// childArgs is the command line of the child process that measures suite
// s: every flag set on fs except -suite, -emit and -compare, each as one
// -name=value word, then those three for s alone. It is built from the
// parsed flags, not from the raw arguments, so the child's selected()
// measures exactly s whatever the parent's command line held.
func childArgs(fs *flag.FlagSet, s *bench.Suite, emit, compare bool) []string {
	var args []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "suite", "emit", "compare":
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	e := ""
	if emit {
		e = s.Name
	}
	return append(args, "-suite="+s.Name, "-emit="+e, fmt.Sprintf("-compare=%t", compare))
}

// runChildren runs this tool once per measured suite, each run a fresh
// process with the command line childArgs gives. It returns 2 if a child
// could not run or failed to measure, else 1 if a child's gate failed,
// else 0.
func runChildren(fs *flag.FlagSet, measured, emitted, compared []*bench.Suite, logf func(string, ...any), stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "tclbench: %v\n", err)
		return 2
	}
	code := 0
	for _, s := range measured {
		logf("== %s: in a child process ==", s.Name)
		cmd := exec.Command(exe, childArgs(fs, s, slices.Contains(emitted, s), slices.Contains(compared, s))...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		var exit *exec.ExitError
		switch err := cmd.Run(); {
		case err == nil:
		case errors.As(err, &exit) && exit.ExitCode() == 1:
			code = max(code, 1)
		default:
			fmt.Fprintf(stderr, "tclbench: %s: %v\n", s.Name, err)
			code = 2
		}
	}
	if code == 1 {
		fmt.Fprintln(stderr, "tclbench: regression gate FAILED")
	}
	return code
}

// selectSuites resolves a suite selector: "" or "all" means every suite;
// an unknown name yields [nil] for the caller to report.
func selectSuites(name string) []*bench.Suite {
	if name == "" || name == "all" {
		out := make([]*bench.Suite, len(bench.Suites))
		for i := range bench.Suites {
			out[i] = &bench.Suites[i]
		}
		return out
	}
	return []*bench.Suite{bench.SuiteByName(name)}
}

// promoteBaselines copies pre-recorded baselines from src into dst after
// validating each is a clean multi-core measurement: GOMAXPROCS > 1, at
// least as many physical cores as GOMAXPROCS, and no contended rows. This
// is how a single-core dev host adopts CI artifacts as the committed
// baselines without ever being able to fabricate them locally.
func promoteBaselines(src, dst, suite string, logf func(string, ...any), stderr io.Writer) int {
	promoted := 0
	for _, s := range selectSuites(suite) {
		path := filepath.Join(src, s.File)
		f, err := bench.Load(path)
		if err != nil {
			if os.IsNotExist(err) {
				logf("promote: %s absent in %s, skipped", s.File, src)
				continue
			}
			fmt.Fprintf(stderr, "tclbench: promote %s: %v\n", s.File, err)
			return 2
		}
		switch {
		case f.GoMaxProcs < 2:
			fmt.Fprintf(stderr, "tclbench: refusing to promote %s: recorded at GOMAXPROCS=%d, want a multi-core run\n", s.File, f.GoMaxProcs)
			return 1
		case f.NumCPU < f.GoMaxProcs:
			fmt.Fprintf(stderr, "tclbench: refusing to promote %s: GOMAXPROCS=%d exceeds the recording host's %d cores (time-sliced)\n", s.File, f.GoMaxProcs, f.NumCPU)
			return 1
		case f.Contended():
			fmt.Fprintf(stderr, "tclbench: refusing to promote %s: contains contended rows\n", s.File)
			return 1
		}
		if err := f.Write(filepath.Join(dst, s.File)); err != nil {
			fmt.Fprintf(stderr, "tclbench: promote %s: %v\n", s.File, err)
			return 2
		}
		logf("promoted %s (GOMAXPROCS=%d, %d cores, %d benchmarks)", s.File, f.GoMaxProcs, f.NumCPU, len(f.Benchmarks))
		promoted++
	}
	if promoted == 0 {
		fmt.Fprintf(stderr, "tclbench: nothing to promote in %s\n", src)
		return 1
	}
	return 0
}

// latencyMetric reports whether a regression metric is a wall-time one —
// noisy under co-located load, hence worth one re-measurement.
func latencyMetric(m string) bool { return m == "ns/op" || m == "p50" || m == "p99" }

// nsOnly reports whether every regression in res is a wall-time one.
func nsOnly(res bench.Result) bool {
	for _, r := range res.Regressions {
		if !latencyMetric(r.Metric) {
			return false
		}
	}
	return len(res.Regressions) > 0
}

// mergeBestNs folds a re-measurement into cur, keeping each record's
// fastest latency metrics (noise only ever adds time). Allocation counts
// and hit rates are left as first measured — they are deterministic, and
// quietly taking a best-of would mask a real regression that reproduced
// only once.
func mergeBestNs(cur, again *bench.File) {
	byID := make(map[string]bench.Record, len(again.Benchmarks))
	for _, r := range again.Benchmarks {
		byID[r.ID] = r
	}
	for i := range cur.Benchmarks {
		r, ok := byID[cur.Benchmarks[i].ID]
		if !ok {
			continue
		}
		c := &cur.Benchmarks[i]
		if r.NsPerOp > 0 && r.NsPerOp < c.NsPerOp {
			c.NsPerOp = r.NsPerOp
		}
		if r.P50Ns > 0 && r.P50Ns < c.P50Ns {
			c.P50Ns = r.P50Ns
		}
		if r.P99Ns > 0 && r.P99Ns < c.P99Ns {
			c.P99Ns = r.P99Ns
		}
	}
}

// filterIDs drops baseline rows not matching any of the comma-separated
// ID prefixes; an empty filter keeps everything.
func filterIDs(f *bench.File, ids string) {
	if ids == "" {
		return
	}
	var prefixes []string
	start := 0
	for i := 0; i <= len(ids); i++ {
		if i == len(ids) || ids[i] == ',' {
			if i > start {
				prefixes = append(prefixes, ids[start:i])
			}
			start = i + 1
		}
	}
	kept := f.Benchmarks[:0]
	for _, r := range f.Benchmarks {
		for _, p := range prefixes {
			if len(r.ID) >= len(p) && r.ID[:len(p)] == p {
				kept = append(kept, r)
				break
			}
		}
	}
	f.Benchmarks = kept
}
