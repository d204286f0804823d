package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bittactical/internal/experiments"
)

// runMain calls main with args as its command line and returns what it
// wrote to stdout. main defines its flags on every call, so each call gets
// a fresh flag.CommandLine; its progress lines on stderr are discarded.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	defer func(args []string, fs *flag.FlagSet, out, errOut *os.File) {
		os.Args, flag.CommandLine, os.Stdout, os.Stderr = args, fs, out, errOut
	}(os.Args, flag.CommandLine, os.Stdout, os.Stderr)
	os.Args = append([]string{"tclreport"}, args...)
	flag.CommandLine = flag.NewFlagSet("tclreport", flag.ExitOnError)
	os.Stdout, os.Stderr = stdout, devnull
	main()
	got, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// markdownSection renders the part of a report section the test pins: the
// "## id — title" heading, then the table as markdown rows under a "---"
// separator row. The generated-at header and the timing line after each
// table are left out.
func markdownSection(tab *experiments.Table) string {
	var b strings.Builder
	b.WriteString("## " + tab.ID + " — " + tab.Title + "\n\n")
	row := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	row(tab.Header)
	sep := make([]string, len(tab.Header))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range tab.Rows {
		row(r)
	}
	return b.String()
}

// TestReportIncludesTables writes a two-table report and reads it back: each
// table's section must hold exactly the experiment table's header and rows,
// and stdout must name the file written.
func TestReportIncludesTables(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.md")
	stdout := runMain(t, "-quick", "-include", "table2,table3", "-o", out)
	if want := "wrote " + out + "\n"; stdout != want {
		t.Errorf("stdout = %q, want %q", stdout, want)
	}
	report, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*experiments.Table{experiments.Table2(), experiments.Table3()} {
		if want := markdownSection(tab); !strings.Contains(string(report), want) {
			t.Errorf("report has no %s section equal to\n%s\nreport:\n%s", tab.ID, want, report)
		}
	}
}

// TestBadCountsExit2 runs the test binary as tclreport with a negative -j:
// it must exit 2 with a tclreport message and write no report, rather than
// run at GOMAXPROCS.
func TestBadCountsExit2(t *testing.T) {
	if args := os.Getenv("TCLREPORT_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclreport"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("tclreport", flag.ExitOnError)
		main()
		return
	}
	for _, j := range []string{"-2", "-1"} {
		out := filepath.Join(t.TempDir(), "report.md")
		args := "-quick -include table2 -j " + j + " -o " + out
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadCountsExit2$")
		cmd.Env = append(os.Environ(), "TCLREPORT_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tclreport %s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclreport %s printed to stdout:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "tclreport: -j ") {
			t.Errorf("tclreport %s stderr = %q, want one tclreport message naming -j", args, msg)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("tclreport %s wrote %s (stat: %v)", args, out, err)
		}
	}
}

// TestBadNamesExit2 runs the test binary as tclreport with an -include list
// naming an unknown experiment, alone or after a known one, and a CPU
// profile requested: each must exit 2 with one tclreport line before
// running anything, and create neither the report nor the profile.
func TestBadNamesExit2(t *testing.T) {
	if args := os.Getenv("TCLREPORT_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tclreport"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("tclreport", flag.ExitOnError)
		main()
		return
	}
	for _, include := range []string{"bogus", "table2,bogus"} {
		dir := t.TempDir()
		out, prof := filepath.Join(dir, "report.md"), filepath.Join(dir, "p.out")
		args := "-quick -include " + include + " -o " + out + " -cpuprofile " + prof
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadNamesExit2$")
		cmd.Env = append(os.Environ(), "TCLREPORT_TEST_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tclreport %s: %v, want exit status 2; stdout:\n%s", args, err, stdout.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("tclreport %s printed to stdout:\n%s", args, stdout.String())
		}
		const msg = "tclreport: unknown experiment \"bogus\""
		if got := stderr.String(); !strings.HasPrefix(got, msg) || strings.Count(got, "\n") != 1 {
			t.Errorf("tclreport %s stderr = %q, want one line starting %q", args, got, msg)
		}
		for _, path := range []string{out, prof} {
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("tclreport %s created %s (stat: %v)", args, path, err)
			}
		}
	}
}
