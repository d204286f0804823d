package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Example runs the workbench with the column-optimal matching scheduler at
// its other defaults; main exits nonzero unless the schedule verifies, so
// the output below is a verified schedule.
func Example() {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"tclsched", "-alg", "matching"}
	main()
	// Output:
	// pattern T8<2,5> (8-input mux), scheduler matching
	// filter: 18 steps x 16 lanes, 86 effectual weights (70% sparse)
	// schedule: 8 columns (dense 18) -> speedup 2.25x; lower bound 6 columns
	// slots: unpromoted 30, lookahead 16, lookaside 40, zero 42, pad 0
}

func TestValidateSize(t *testing.T) {
	for _, tc := range []struct {
		lanes, steps int
		sparsity     float64
		ok           bool
	}{
		{16, 18, 0.7, true},
		{16, 288, 0.9, true}, // fig11's 4,608-slot filter
		{1, 1, 0, true},
		{1, 1, 1, true},
		{1 << 12, 1 << 12, 0.5, true}, // exactly maxSlots
		{0, 18, 0.7, false},
		{-3, 18, 0.7, false},
		{16, 0, 0.7, false},
		{16, -1, 0.7, false},
		{16, 18, -0.5, false},
		{16, 18, 2, false},
		{16, 18, math.NaN(), false},
		{1<<12 + 1, 1 << 12, 0.5, false},
		{100000, 100000, 0.7, false},
		{math.MaxInt, math.MaxInt, 0.7, false}, // the product would overflow
	} {
		if err := validateSize(tc.lanes, tc.steps, tc.sparsity); (err == nil) != tc.ok {
			t.Errorf("validateSize(%d, %d, %g) = %v, want ok %v", tc.lanes, tc.steps, tc.sparsity, err, tc.ok)
		}
	}
}

// TestLanesZeroExits2 runs the test binary as tclsched -lanes 0 with a CPU
// profile requested: it must exit 2 with a tclsched message, not panic,
// and leave no profile behind.
func TestLanesZeroExits2(t *testing.T) {
	if prof := os.Getenv("TCLSCHED_TEST_PROFILE"); prof != "" {
		os.Args = []string{"tclsched", "-lanes", "0", "-cpuprofile", prof}
		main()
		return
	}
	prof := filepath.Join(t.TempDir(), "p.out")
	cmd := exec.Command(os.Args[0], "-test.run=^TestLanesZeroExits2$")
	cmd.Env = append(os.Environ(), "TCLSCHED_TEST_PROFILE="+prof)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("tclsched -lanes 0: %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); strings.Contains(msg, "panic") || !strings.HasPrefix(msg, "tclsched: ") {
		t.Errorf("tclsched -lanes 0 stderr = %q, want one tclsched: message and no panic", msg)
	}
	if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tclsched -lanes 0 left a profile (stat: %v)", err)
	}
}

// TestUsageErrorsExit2 runs the test binary as tclsched with each other bad
// flag, or an argument after the flags (where flag parsing stops, so the
// flags after it would be dropped unseen), and a CPU profile requested:
// each must exit 2 with one tclsched line, print nothing to stdout and
// create no profile, rather than schedule anyway or leave an empty profile
// behind.
func TestUsageErrorsExit2(t *testing.T) {
	if args := os.Getenv("TCLSCHED_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclsched"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, msg string }{
		{"-repeat 0", "tclsched: -repeat 0 must be at least 1"},
		{"-repeat -5", "tclsched: -repeat -5 must be at least 1"},
		{"-pattern bogus", "tclsched: sched: unknown pattern"},
		{"-alg bogus", "tclsched: unknown algorithm"},
		{"-steps 4 oops -repeat 0", `tclsched: unexpected argument "oops"`},
	} {
		prof := filepath.Join(t.TempDir(), "p.out")
		args := tc.args + " -cpuprofile " + prof
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "TCLSCHED_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tclsched %s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclsched %s printed to stdout:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, tc.msg) || strings.Count(msg, "\n") != 1 {
			t.Errorf("tclsched %s stderr = %q, want one line starting %q", args, msg, tc.msg)
		}
		if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("tclsched %s left a profile (stat: %v)", args, err)
		}
	}
}
