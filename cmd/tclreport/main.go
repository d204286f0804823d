// Command tclreport runs the full experiment suite and writes a single
// markdown report — the machine-generated companion to EXPERIMENTS.md.
//
// Usage:
//
//	tclreport -o report.md
//	tclreport -o report.md -quick        # small zoo, fast smoke report
//	tclreport -o report.md -include fig8a,fig12
//	tclreport -o report.md -j 4 -memprofile heap.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bittactical/internal/experiments"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/profiling"
)

func main() {
	var (
		out     = flag.String("o", "report.md", "output file")
		quick   = flag.Bool("quick", false, "small zoo for a fast smoke report")
		include = flag.String("include", "", "comma-separated experiment subset")
		cscale  = flag.Float64("cscale", 0.25, "channel scale")
		sscale  = flag.Float64("sscale", 0.5, "spatial scale")
		par     = flag.Int("j", 0, "worker parallelism (0 = GOMAXPROCS)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mstats  = flag.Bool("metrics", false, "dump the engine metrics snapshot (JSON) after the run")
	)
	flag.Parse()

	if *par < 0 {
		fmt.Fprintf(os.Stderr, "tclreport: -j %d must be at least 0 (0 = GOMAXPROCS)\n", *par)
		os.Exit(2)
	}
	// Every experiment name resolves before any profile is created or
	// anything runs.
	ids := experiments.IDs()
	if *include != "" {
		ids = strings.Split(*include, ",")
	}
	runs := make([]func(experiments.Options) (*experiments.Table, error), len(ids))
	for i, id := range ids {
		run, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "tclreport: unknown experiment %q\n", id)
			os.Exit(2)
		}
		runs[i] = run
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclreport:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so a failing exit stops the profiles
	// itself.
	stop := func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tclreport:", err)
		}
	}
	defer stop()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tclreport: "+format+"\n", args...)
		stop()
		os.Exit(1)
	}

	opts := experiments.Options{}
	zoo := nn.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = *cscale, *sscale
	opts.Zoo = zoo
	if *quick {
		opts = experiments.Quick()
	}
	opts.Parallelism = *par

	var b strings.Builder
	fmt.Fprintf(&b, "# Bit-Tactical reproduction report\n\n")
	fmt.Fprintf(&b, "Generated %s; zoo channel scale %.3g, spatial scale %.3g.\n\n",
		time.Now().Format(time.RFC3339), opts.Zoo.ChannelScale, opts.Zoo.SpatialScale)
	for i, id := range ids {
		start := time.Now()
		tab, err := runs[i](opts)
		if err != nil {
			fail("%s: %v", id, err)
		}
		fmt.Fprintf(&b, "## %s — %s\n\n", tab.ID, tab.Title)
		writeMarkdownTable(&b, tab)
		fmt.Fprintf(&b, "_%.1fs_\n\n", time.Since(start).Seconds())
		fmt.Fprintf(os.Stderr, "tclreport: %s done (%.1fs)\n", id, time.Since(start).Seconds())
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Println("wrote", *out)
	if *mstats {
		if err := metrics.Default.WriteJSON(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
}

func writeMarkdownTable(b *strings.Builder, t *experiments.Table) {
	row := func(cells []string) {
		b.WriteString("| ")
		b.WriteString(strings.Join(cells, " | "))
		b.WriteString(" |\n")
	}
	row(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(b, "> %s\n", n)
	}
	b.WriteByte('\n')
}
