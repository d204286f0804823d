package main

import (
	"flag"
	"os"
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
