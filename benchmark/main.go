// Command benchmark measures the simulator end to end, the way its users
// run it, and attributes the time to the program's layers (nn, sched, sim,
// experiments, serve) by timing its own calls into their public functions.
// README.md has the workload and metric catalogue.
//
//	benchmark -workload zoo-warm -seed 1 -seconds 15 -trace 0
//	benchmark -seed 1 -out DIR [-runs 5]
//	benchmark -agree DIR_A DIR_B
//
// The first form runs one workload in this process and prints its metrics,
// ending with one JSON line. The second runs every workload, each in a
// fresh process with a traced run after its window, and writes result and
// trace files to DIR. The third compares two such result sets.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// The load is fixed, not configurable, so numbers compare across commits.
// It fits a shared 2-core host: two engine workers, two closed-loop HTTP
// clients, and an in-flight bound the clients never reach.
const (
	enginePar   = 2
	httpClients = 2
	maxInFlight = 4
	cores       = 2 // runtime.cpu_util is a share of this many cores
)

// The run shape: setup_s is the median of setupRepeats independent
// set-ups, and the traced run is a fixed number of ops.
const (
	defaultSeconds = 15
	setupRepeats   = 3
	tracedPasses   = 3
	tracedRequests = 100
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	runs     int
	record   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in a fresh process)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: activations and the fig11 filters (weights keep the zoo seed)")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the untraced timed window")
	fs.IntVar(&o.trace, "trace", 0, "1 follows the window with a traced run and reports per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for result and trace files")
	fs.IntVar(&o.runs, "runs", 1, "without -workload: runs of each workload, with seeds seed, seed+1, ...")
	fs.StringVar(&o.record, "record", "", "write the seed-1 digests into this file instead of checking them against testdata/expected.json")
	agreeMode := fs.Bool("agree", false, "compare the result sets in the two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	switch {
	case *agreeMode:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -agree takes two result directories")
			return 2
		}
		ok, err := agree(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	case o.seconds < 1 || o.runs < 1 || (o.trace != 0 && o.trace != 1):
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be positive and -trace 0 or 1")
		return 2
	case o.record != "" && o.seed != 1:
		fmt.Fprintln(stderr, "benchmark: -record needs -seed 1")
		return 2
	case o.workload != "":
		return runOne(ctx, o, stdout, stderr)
	}
	return runAll(ctx, o, stdout, stderr)
}

// runOne runs one workload in this process. It prints every metric with
// its unit, then one JSON line: the end-to-end metrics, or with -trace 1
// the per-layer ones. It exits 1 when an output check failed.
func runOne(ctx context.Context, o options, stdout, stderr io.Writer) int {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	cfg := runConfig{def: def, prof: def.prof(), seed: o.seed, window: time.Duration(o.seconds) * time.Second,
		setups: setupRepeats}
	if o.seed == 1 && o.record == "" {
		exps, err := committed()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if cfg.expect = exps[def.name]; cfg.expect == nil {
			fmt.Fprintf(stderr, "benchmark: testdata/expected.json has no digest for %s\n", def.name)
			return 2
		}
	}
	if o.trace == 1 {
		cfg.tracedOps = def.traced
	}
	return execute(ctx, o, cfg, stdout, stderr)
}

// execute runs one configured workload and reports it as runOne describes.
func execute(ctx context.Context, o options, cfg runConfig, stdout, stderr io.Writer) int {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.record != "" {
		if err := record(o.record, cfg.def.name, res.Digest); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if o.out != "" {
		if err := writeResult(o.out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	report(stdout, res)
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "benchmark: check failed:", p)
	}
	metrics := res.EndToEnd
	if o.trace == 1 {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload -runs times, each run in a fresh process with
// a traced run, and prints every metric of every run.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	dir := o.out
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchmark")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for r := 0; r < o.runs; r++ {
		seed := o.seed + int64(r)
		for _, def := range workloads {
			args := []string{"-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", "1", "-out", dir}
			if o.record != "" {
				args = append(args, "-record", o.record)
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", def.name, seed, err)
				code = 1
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 1 {
					continue // no result file without a finished run
				}
			}
			res, err := readResult(dir, def.name, seed)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
				continue
			}
			report(stdout, res)
		}
	}
	return code
}

func resultPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d", workload, seed))
}

// writeResult writes the run's result file and, after a traced run, its
// Chrome trace.
func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := resultPath(dir, res.Workload, res.Seed)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(res.spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, res.spans); err != nil {
		return err
	}
	return os.WriteFile(base+".trace.json", buf.Bytes(), 0o644)
}

func readResult(dir, workload string, seed int64) (*result, error) {
	data, err := os.ReadFile(resultPath(dir, workload, seed) + ".json")
	if err != nil {
		return nil, err
	}
	var r result
	return &r, json.Unmarshal(data, &r)
}

// report prints a run's metrics, one per line, with units.
func report(w io.Writer, res *result) {
	status := "checks passed"
	if !res.Correct {
		status = "CHECKS FAILED"
	}
	fmt.Fprintf(w, "%s seed %d: %s, %d ops attempted, %d failed, %d timed, revision %s\n",
		res.Workload, res.Seed, status, res.Attempted, res.Failed, res.WindowOps, res.Revision)
	for _, set := range []struct {
		defs   []metricDef
		values map[string]metricValue
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		for _, d := range set.defs {
			if v, ok := set.values[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}
