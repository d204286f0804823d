// Benchmarks: one per table and figure of the paper's evaluation. Each
// iteration regenerates the artifact through its experiment runner on a
// bench-sized instantiation of the model zoo (the experiment ids match
// cmd/tclsim; run that with default options for the full-size numbers
// recorded in EXPERIMENTS.md). Reported metrics carry each artifact's
// headline number so regressions in *results*, not just runtime, are
// visible.
package bittactical_test

import (
	"strconv"
	"strings"
	"testing"

	"bittactical/internal/experiments"
	"bittactical/internal/nn"
)

// benchOptions sizes the zoo so the full suite completes in minutes while
// still exercising all seven networks and every layer type.
func benchOptions() experiments.Options {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.125, 0.35
	return experiments.Options{Zoo: z, Trials: 25}
}

// lastCell parses the trailing numeric cell ("1.23x") of a table row.
func lastCell(b *testing.B, row []string) float64 {
	b.Helper()
	cell := strings.TrimSuffix(row[len(row)-1], "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", row[len(row)-1], err)
	}
	return v
}

func runExperiment(b *testing.B, id string, metric func(*experiments.Table) (string, float64)) {
	b.Helper()
	opts := benchOptions()
	run := experiments.Registry[id]
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tab, err := run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			name, v := metric(tab)
			b.ReportMetric(v, name)
		}
	}
}

// geomean of a named row's trailing cell.
func rowMetric(label, unit string) func(*experiments.Table) (string, float64) {
	return func(t *experiments.Table) (string, float64) {
		for _, r := range t.Rows {
			if r[0] == label {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(r[len(r)-1], "x"), 64)
				return unit, v
			}
		}
		return unit, 0
	}
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", rowMetric("Geomean", "geomean-W+Ae"))
}

func BenchmarkTable1Q8(b *testing.B) {
	runExperiment(b, "table1q8", rowMetric("Geomean", "geomean-W+Ae"))
}

func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", nil) }

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", func(t *experiments.Table) (string, float64) {
		for _, r := range t.Rows {
			if r[0] == "Normalized Total T8<2,5>" {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(r[1], "x"), 64)
				return "tcle-area-ratio", v
			}
		}
		return "tcle-area-ratio", 0
	})
}

func BenchmarkFig8a(b *testing.B) {
	runExperiment(b, "fig8a", rowMetric("T8<2,5>", "fe-geomean-speedup"))
}

func BenchmarkFig8b(b *testing.B) {
	runExperiment(b, "fig8b", rowMetric("TCLe<2,5>", "tcle-geomean-speedup"))
}

func BenchmarkFig8c(b *testing.B) { runExperiment(b, "fig8c", nil) }

func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9", nil) }

func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10", nil) }

func BenchmarkFig11a(b *testing.B) {
	runExperiment(b, "fig11a", func(t *experiments.Table) (string, float64) {
		// Headline: T8<2,5> at 70% sparsity (column 1, row "70%").
		for _, r := range t.Rows {
			if r[0] == "70%" {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(r[1], "x"), 64)
				return "t25-at-70pct", v
			}
		}
		return "t25-at-70pct", 0
	})
}

func BenchmarkFig11b(b *testing.B) {
	runExperiment(b, "fig11b", func(t *experiments.Table) (string, float64) {
		for _, r := range t.Rows {
			if r[0] == "90%" {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(r[1], "x"), 64)
				return "alg1-at-90pct", v
			}
		}
		return "alg1-at-90pct", 0
	})
}

func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12", rowMetric("TCLe<2,5>", "tcle-vs-dadn"))
}

func BenchmarkFig13(b *testing.B) {
	runExperiment(b, "fig13", rowMetric("TCLe<2,5>", "tcle-8b-speedup"))
}

// BenchmarkScheduler isolates the paper's core contribution: Algorithm 1 on
// one Figure-11-sized filter (288 steps × 16 lanes) at 70% sparsity.
func BenchmarkScheduler(b *testing.B) {
	opts := benchOptions()
	opts.Trials = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11a(opts); err != nil {
			b.Fatal(err)
		}
	}
}
