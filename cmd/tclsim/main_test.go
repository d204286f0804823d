package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bittactical/internal/experiments"
)

// runMain calls main with args as its command line. main defines its flags
// on every call, so each call gets a fresh flag.CommandLine.
func runMain(args ...string) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	os.Args = append([]string{"tclsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("tclsim", flag.ExitOnError)
	main()
}

// Example lists the experiment ids, then the registered back-ends and
// models the -backend and -models flags accept.
func Example() {
	runMain("-list")
	// Output:
	// ablation-sched
	// ablation-sync
	// attn-batch
	// attn-fig8
	// attn-table1
	// backends-ext
	// baselines-ext
	// dataflow
	// fig10
	// fig11a
	// fig11b
	// fig12
	// fig13
	// fig8a
	// fig8b
	// fig8c
	// fig9
	// ss-coverage
	// structured
	// table1
	// table1q8
	// table2
	// table3
	// back-ends (for -backend): TCLe, TCLp, bit-parallel, dstripes-sm
	// models (for -models): AlexNet-ES, AlexNet-SS, BERT-Attn, Bi-LSTM, ConvNeXt-DW, GPT2-Attn, GoogLeNet-ES, GoogLeNet-SS, MobileNet, ResNet50-SS, ViT-Attn
}

// TestCSVMatchesTable runs one experiment with -csv and reads the file back:
// it must hold the experiment table's header and rows exactly.
func TestCSVMatchesTable(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// The rendered table on stdout is not under test here.
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = devnull
	runMain("-exp", "table2", "-csv", dir)

	f, err := os.Open(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.Table2()
	if len(got) != len(want.Rows)+1 {
		t.Fatalf("table2.csv has %d records, want a header and %d rows", len(got), len(want.Rows))
	}
	if !slices.Equal(got[0], want.Header) {
		t.Errorf("header = %q, want %q", got[0], want.Header)
	}
	for i, row := range want.Rows {
		if !slices.Equal(got[i+1], row) {
			t.Errorf("row %d = %q, want %q", i, got[i+1], row)
		}
	}
}

// TestBadScaleFails runs the test binary as tclsim with a zoo scale
// outside (0, 1]: each must exit nonzero with a tclsim message and print no
// table, rather than simulate the model the scaling rules clamp it to.
func TestBadScaleFails(t *testing.T) {
	if args := os.Getenv("TCLSIM_TEST_ARGS"); args != "" {
		runMain(strings.Fields(args)...)
		return
	}
	for _, scale := range []string{"-cscale -1", "-cscale NaN", "-sscale -2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleFails$")
		cmd.Env = append(os.Environ(), "TCLSIM_TEST_ARGS=-exp fig8a -models AlexNet-ES "+scale)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("tclsim %s: %v, want a nonzero exit; stdout:\n%s", scale, err, stdout.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclsim %s printed to stdout:\n%s", scale, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "tclsim: fig8a: ") || !strings.Contains(msg, "(0, 1]") {
			t.Errorf("tclsim %s stderr = %q, want a tclsim message naming the (0, 1] bound", scale, msg)
		}
	}
}

// TestBadCountsExit2 runs the test binary as tclsim with each count below
// its bound: each must exit 2 with a tclsim message naming the flag, print
// no table and create no profile, rather than run the library default in
// its place.
func TestBadCountsExit2(t *testing.T) {
	if args := os.Getenv("TCLSIM_TEST_ARGS"); args != "" {
		runMain(strings.Fields(args)...)
		return
	}
	for _, tc := range []struct{ args, flag string }{
		{"-exp fig11b -trials 0", "-trials"},
		{"-exp fig11b -trials -3", "-trials"},
		{"-exp fig8a -models AlexNet-ES -batch -2", "-batch"},
		{"-exp table2 -j -4", "-j"},
	} {
		checkUsageError(t, "TestBadCountsExit2", tc.args, "tclsim: "+tc.flag+" ")
	}
}

// TestBadNamesExit2 runs the test binary as tclsim with an experiment or
// back-end name that resolves to nothing: each must exit 2 with one tclsim
// line, print nothing and create no profile.
func TestBadNamesExit2(t *testing.T) {
	if args := os.Getenv("TCLSIM_TEST_ARGS"); args != "" {
		runMain(strings.Fields(args)...)
		return
	}
	checkUsageError(t, "TestBadNamesExit2", "-exp bogus", "tclsim: unknown experiment \"bogus\"")
	checkUsageError(t, "TestBadNamesExit2", "-backend bogus", "tclsim: backend: unknown back-end \"bogus\"")
}

// checkUsageError re-runs the test binary's named test as tclsim with args
// and a CPU profile requested. It must exit 2, print nothing to stdout,
// write one stderr line starting with msg, and create no profile.
func checkUsageError(t *testing.T, test, args, msg string) {
	t.Helper()
	prof := filepath.Join(t.TempDir(), "p.out")
	args += " -cpuprofile " + prof
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "TCLSIM_TEST_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("tclsim %s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
		return
	}
	if stdout.Len() != 0 {
		t.Errorf("tclsim %s printed to stdout:\n%s", args, stdout.String())
	}
	if got := stderr.String(); !strings.HasPrefix(got, msg) || strings.Count(got, "\n") != 1 {
		t.Errorf("tclsim %s stderr = %q, want one line starting %q", args, got, msg)
	}
	if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tclsim %s left a profile (stat: %v)", args, err)
	}
}
