package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bittactical/internal/bench"
)

func writeFile(t *testing.T, dir, name string, recs ...bench.Record) {
	t.Helper()
	f := &bench.File{Schema: bench.Schema, GoMaxProcs: 1, NumCPU: 1, Benchmarks: recs}
	if err := f.Write(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func r(id string, ns float64, allocs int64) bench.Record {
	return bench.Record{ID: id, GoMaxProcs: 1, NsPerOp: ns, AllocsPerOp: allocs, Iterations: 1}
}

func serveRec(id string, p50 float64, hitRate float64) bench.Record {
	return bench.Record{
		ID: id, GoMaxProcs: 1, NsPerOp: p50, AllocsPerOp: 1000, Iterations: 1,
		P50Ns: p50, P99Ns: 2 * p50, RPS: 100, CoalesceHitRate: hitRate,
	}
}

// fixture lays out matching baseline and current directories covering all
// three suites. The sched suite carries the interesting row next to a
// steady one: schedBase in the baseline, schedCur in the current run.
func fixture(t *testing.T, schedBase, schedCur bench.Record) (baseDir, curDir string) {
	t.Helper()
	baseDir, curDir = t.TempDir(), t.TempDir()
	steady := r("sched/L4<1,2>/algorithm1/kernel", 500, 0)
	for _, d := range []string{baseDir, curDir} {
		writeFile(t, d, "BENCH_sim.json", r("fig8a/j1", 1e9, 50000))
		writeFile(t, d, "BENCH_serve.json", serveRec("serve/hot", 1e7, 0.95))
	}
	writeFile(t, baseDir, "BENCH_sched.json", steady, schedBase)
	writeFile(t, curDir, "BENCH_sched.json", steady, schedCur)
	return baseDir, curDir
}

// t8 is the fixture's interesting sched row.
const t8 = "sched/T8<2,5>/algorithm1/kernel"

// TestGateFailsOnInjectedRegression is the end-to-end negative test the
// issue requires: a deliberately injected >10% regression must exit 1.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	baseDir, curDir := fixture(t, r(t8, 100, 0), r(t8, 120, 0)) // 20% slower
	var out, errOut bytes.Buffer
	code := run([]string{"-compare", "-dir", baseDir, "-current", curDir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), t8) || !strings.Contains(errOut.String(), "ns/op") {
		t.Fatalf("failure not attributed: %s", errOut.String())
	}
}

// TestGatePassesWithinThreshold: the same layout inside threshold exits 0.
func TestGatePassesWithinThreshold(t *testing.T) {
	baseDir, curDir := fixture(t, r(t8, 100, 0), r(t8, 105, 0))
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-dir", baseDir, "-current", curDir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errOut.String())
	}
}

// TestGateIDFilter: -ids restricts which baseline rows gate, so a
// regression outside the filter is ignored and one inside still fails.
func TestGateIDFilter(t *testing.T) {
	baseDir, curDir := fixture(t, r(t8, 100, 0), r(t8, 200, 0))
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-dir", baseDir, "-current", curDir, "-ids", "fig8a,sched/L4"}, &out, &errOut); code != 0 {
		t.Fatalf("filtered-out regression still failed: %s", errOut.String())
	}
	if code := run([]string{"-compare", "-dir", baseDir, "-current", curDir, "-ids", "sched/T8"}, &out, &errOut); code != 1 {
		t.Fatalf("filtered-in regression passed")
	}
}

// TestGateSuiteRestriction: -suite compares only that suite's file.
func TestGateSuiteRestriction(t *testing.T) {
	baseDir, curDir := fixture(t, r(t8, 100, 0), r(t8, 200, 0))
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-suite", "sim", "-dir", baseDir, "-current", curDir}, &out, &errOut); code != 0 {
		t.Fatalf("sim-only compare hit the sched regression: %s", errOut.String())
	}
	if code := run([]string{"-compare", "-suite", "sched", "-dir", baseDir, "-current", curDir}, &out, &errOut); code != 1 {
		t.Fatalf("sched-only compare missed the regression")
	}
	if code := run([]string{"-compare", "-suite", "nope", "-dir", baseDir}, &out, &errOut); code != 2 {
		t.Fatalf("unknown suite not a usage error")
	}
}

// TestGateMissingRowFails: dropping a benchmark from the current run is a
// gate failure, not a silent pass.
func TestGateMissingRowFails(t *testing.T) {
	baseDir, curDir := fixture(t,
		r(t8, 100, 0),
		r("sched/T8<2,5>/algorithm1/fresh", 100, 0)) // different ID: kernel row missing
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-suite", "sched", "-dir", baseDir, "-current", curDir}, &out, &errOut); code != 1 {
		t.Fatalf("missing baseline row passed the gate")
	}
	if !strings.Contains(errOut.String(), "missing") {
		t.Fatalf("missing row not reported: %s", errOut.String())
	}
}

// TestRetryMerge pins the noise-retry helpers: only all-ns failures
// qualify for a re-measure, and the merge keeps the fastest time per
// record while never touching allocation counts.
func TestRetryMerge(t *testing.T) {
	nsReg := bench.Result{Regressions: []bench.Regression{{ID: "a", Metric: "ns/op"}}}
	allocReg := bench.Result{Regressions: []bench.Regression{
		{ID: "a", Metric: "ns/op"}, {ID: "b", Metric: "allocs/op"},
	}}
	if !nsOnly(nsReg) || nsOnly(allocReg) || nsOnly(bench.Result{}) {
		t.Fatal("nsOnly misclassifies")
	}

	cur := &bench.File{Benchmarks: []bench.Record{r("a", 200, 10), r("b", 100, 10)}}
	again := &bench.File{Benchmarks: []bench.Record{
		{ID: "a", GoMaxProcs: 1, NsPerOp: 150, AllocsPerOp: 99},
		{ID: "b", GoMaxProcs: 1, NsPerOp: 300, AllocsPerOp: 10},
	}}
	mergeBestNs(cur, again)
	if cur.Benchmarks[0].NsPerOp != 150 || cur.Benchmarks[0].AllocsPerOp != 10 {
		t.Fatalf("record a after merge: %+v, want ns 150 / allocs 10", cur.Benchmarks[0])
	}
	if cur.Benchmarks[1].NsPerOp != 100 {
		t.Fatalf("record b took the slower re-measure: %+v", cur.Benchmarks[1])
	}
}

// TestUsageErrors: no action and unparseable flags are usage errors.
func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-op invocation exit %d, want 2", code)
	}
	if code := run([]string{"-threshold", "x"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
}

// TestGateServeMetrics: the serve suite's latency percentiles gate under
// the ns policy and its coalesce hit rate gates on every host.
func TestGateServeMetrics(t *testing.T) {
	baseDir, curDir := fixture(t, r(t8, 100, 0), r(t8, 100, 0))
	var out, errOut bytes.Buffer

	// 2x p99: latency regression.
	slow := serveRec("serve/hot", 1e7, 0.95)
	slow.P99Ns *= 2
	writeFile(t, curDir, "BENCH_serve.json", slow)
	if code := run([]string{"-compare", "-suite", "serve", "-dir", baseDir, "-current", curDir}, &out, &errOut); code != 1 {
		t.Fatalf("p99 regression passed the gate: %s", out.String())
	}
	if !strings.Contains(errOut.String(), "p99") {
		t.Fatalf("p99 regression not attributed: %s", errOut.String())
	}

	// Hit rate collapse: gated even across host shapes.
	errOut.Reset()
	cold := serveRec("serve/hot", 1e7, 0.40)
	cold.GoMaxProcs = 8 // different host: ns skipped, hit rate still gates
	writeFile(t, curDir, "BENCH_serve.json", cold)
	if code := run([]string{"-compare", "-suite", "serve", "-dir", baseDir, "-current", curDir}, &out, &errOut); code != 1 {
		t.Fatalf("hit-rate collapse passed the gate: %s", out.String())
	}
	if !strings.Contains(errOut.String(), "coalesce_hit_rate") {
		t.Fatalf("hit-rate regression not attributed: %s", errOut.String())
	}
}

// promoteFixture writes one clean multi-core artifact set (every suite)
// into a directory.
func promoteFixture(t *testing.T, gomaxprocs, numCPU int, contended bool) string {
	t.Helper()
	dir := t.TempDir()
	for _, s := range bench.Suites {
		f := &bench.File{
			Schema: bench.Schema, GoMaxProcs: gomaxprocs, NumCPU: numCPU,
			Benchmarks: []bench.Record{{
				ID: s.Name + "/row", GoMaxProcs: gomaxprocs, NsPerOp: 100,
				AllocsPerOp: 10, Iterations: 1, Contended: contended,
			}},
		}
		if err := f.Write(filepath.Join(dir, s.File)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPromoteAdoptsCleanArtifacts: -promote validates and copies CI
// baselines; the single-core host can adopt but never fabricate them.
func TestPromoteAdoptsCleanArtifacts(t *testing.T) {
	src := promoteFixture(t, 4, 8, false)
	dst := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run([]string{"-promote", src, "-dir", dst}, &out, &errOut); code != 0 {
		t.Fatalf("clean promote exit %d: %s", code, errOut.String())
	}
	for _, s := range bench.Suites {
		f, err := bench.Load(filepath.Join(dst, s.File))
		if err != nil {
			t.Fatalf("promoted %s unreadable: %v", s.File, err)
		}
		if f.GoMaxProcs != 4 {
			t.Errorf("promoted %s lost its host shape: %+v", s.File, f)
		}
	}

	// A partial artifact set promotes what exists and skips the rest.
	partial := t.TempDir()
	f, _ := bench.Load(filepath.Join(src, "BENCH_serve.json"))
	if err := f.Write(filepath.Join(partial, "BENCH_serve.json")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-promote", partial, "-dir", t.TempDir()}, &out, &errOut); code != 0 {
		t.Fatalf("partial promote exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Fatalf("partial promote did not report skips: %s", out.String())
	}
}

// TestPromoteRefusesTaintedArtifacts: single-core, time-sliced, or
// contended recordings must not become committed baselines.
func TestPromoteRefusesTaintedArtifacts(t *testing.T) {
	cases := map[string]string{
		"single-core": promoteFixture(t, 1, 8, false),
		"time-sliced": promoteFixture(t, 8, 1, false),
		"contended":   promoteFixture(t, 4, 8, true),
	}
	for name, src := range cases {
		var out, errOut bytes.Buffer
		dst := t.TempDir()
		if code := run([]string{"-promote", src, "-dir", dst}, &out, &errOut); code != 1 {
			t.Errorf("%s promote exit %d, want 1 (%s)", name, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "refusing to promote") {
			t.Errorf("%s: refusal not reported: %s", name, errOut.String())
		}
		for _, s := range bench.Suites {
			if _, err := bench.Load(filepath.Join(dst, s.File)); err == nil {
				t.Errorf("%s: tainted baseline %s was written anyway", name, s.File)
			}
		}
	}

	// An empty artifact directory is an error, not a silent success.
	var out, errOut bytes.Buffer
	if code := run([]string{"-promote", t.TempDir(), "-dir", t.TempDir()}, &out, &errOut); code != 1 {
		t.Errorf("empty promote exit %d, want 1", code)
	}
}

// asTool runs the test binary as tclbench, with the arguments a re-exec
// test put in TCLBENCH_TEST_ARGS, and exits with its status.
func asTool() {
	if args := os.Getenv("TCLBENCH_TEST_ARGS"); args != "" {
		os.Exit(run(strings.Fields(args), os.Stdout, os.Stderr))
	}
}

// checkUsageExit re-runs the test binary's test as tclbench with args and
// requires exit status 2, nothing on stdout (where a measurement or a
// child process would log first) and one stderr line starting with want.
func checkUsageExit(t *testing.T, test, args, want string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "TCLBENCH_TEST_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
		return
	}
	if stdout.Len() != 0 {
		t.Errorf("%s printed to stdout:\n%s", args, stdout.String())
	}
	if got := stderr.String(); !strings.HasPrefix(got, want) || strings.Count(got, "\n") != 1 {
		t.Errorf("%s: stderr = %q, want one line starting %q", args, got, want)
	}
}

// TestBadThresholdExit2 runs the test binary as tclbench comparing a copy
// of the committed baselines with a -threshold that would switch the gate
// off: NaN makes every comparison false, a negative one fails equal
// values, and 1 or more never fails a hit rate. Each must exit 2 with one
// stderr line naming the flag, before measuring or comparing anything.
// Thresholds in [0, 1) still compare.
func TestBadThresholdExit2(t *testing.T) {
	asTool()
	cur := t.TempDir()
	for _, s := range bench.Suites {
		data, err := os.ReadFile(filepath.Join("..", "..", s.File))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cur, s.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	args := "-compare -dir ../.. -current " + cur + " -threshold "
	for _, v := range []string{"NaN", "Inf", "-Inf", "1e9", "1", "-1", "-0.01"} {
		checkUsageExit(t, "TestBadThresholdExit2", args+v, "tclbench: -threshold ")
	}
	for _, v := range []string{"0", "0.5"} {
		var out, errOut bytes.Buffer
		if code := run(strings.Fields(args+v), &out, &errOut); code != 0 {
			t.Errorf("-threshold %s: exit %d, want 0\n%s", v, code, errOut.String())
		}
	}
}

// TestPositionalArgExit2 runs the test binary as tclbench with an
// argument after the flags. The flag package stops parsing there, so
// the flags after it would be dropped unseen: each must exit 2 with one
// stderr line naming the argument, before measuring anything or starting
// a child process.
func TestPositionalArgExit2(t *testing.T) {
	asTool()
	for _, args := range []string{
		"-compare sim",
		"-compare extra",
		"-emit all x",
		"-compare -- -suite sched",
		"-compare -threshold 0.2 sched -suite sched",
	} {
		checkUsageExit(t, "TestPositionalArgExit2", args, "tclbench: unexpected argument ")
	}
}

// TestChildArgsMeasureOneSuite parses each child command line a
// multi-suite run would start and requires it to measure exactly its own
// suite, emitting and comparing it as the parent would, with every other
// flag carried over unchanged.
func TestChildArgsMeasureOneSuite(t *testing.T) {
	for _, args := range [][]string{
		{"-compare"},
		{"-compare", "--"},
		{"-emit", "all"},
		{"-emit", "all", "-compare", "-threshold", "0.2", "-mintime", "2s", "-ids", "fig8a,serve/", "-force"},
		{"-emit", "sim", "-compare", "-suite", "sched", "-dir", "a dir"},
		{"-emit=serve", "-compare=true", "-suite=all"},
	} {
		fs, o, ok := parseFlags(args, io.Discard)
		if !ok {
			t.Fatalf("%q does not parse", args)
		}
		emitted, compared, measured := o.selected()
		if len(measured) < 2 {
			t.Fatalf("%q measures %d suites, want several", args, len(measured))
		}
		for _, s := range measured {
			emit, cmp := slices.Contains(emitted, s), slices.Contains(compared, s)
			child := childArgs(fs, s, emit, cmp)
			_, co, ok := parseFlags(child, io.Discard)
			if !ok {
				t.Errorf("%q: child %q does not parse", args, child)
				continue
			}
			ce, cc, cm := co.selected()
			if len(cm) != 1 || cm[0] != s || slices.Contains(ce, s) != emit || slices.Contains(cc, s) != cmp {
				t.Errorf("%q: child %q measures %d suites (emit %t, compare %t), want only %s (emit %t, compare %t)",
					args, child, len(cm), slices.Contains(ce, s), slices.Contains(cc, s), s.Name, emit, cmp)
			}
			want := *o
			want.suite, want.emit, want.compare = co.suite, co.emit, co.compare
			if *co != want {
				t.Errorf("%q: child %q parses to %+v, want %+v", args, child, *co, want)
			}
		}
	}
}
