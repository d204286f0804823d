package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
)

// fig11Steps is the Figure 11 workload geometry: 3×3 filters with 512
// channels over 16 lanes -> 288 schedule steps.
const (
	fig11Steps = 3 * 3 * 512 / 16
	fig11Lanes = 16
)

func (o Options) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	return 100
}

// sparsityLevels is Figure 11's x-axis: 0%..90% in 10% increments.
var sparsityLevels = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// fig11Sweep schedules `trials` random filters per sparsity level for each
// (pattern, algorithm) series and returns geomean speedups (dense steps /
// schedule columns) per level.
func fig11Sweep(o Options, series []struct {
	Label string
	P     sched.Pattern
	Alg   sched.Algorithm
}) [][]float64 {
	out := make([][]float64, len(series))
	for i := range out {
		out[i] = make([]float64, len(sparsityLevels))
	}
	n := o.trials()
	// One job per sparsity level. The seed depends only on the level, not
	// the series, so every series schedules the same filters (a paired
	// comparison): the job draws each trial's filter once, into storage it
	// reuses, and schedules it under every series in its own kernel's arena.
	parallelDo(o, len(sparsityLevels), func(li int) {
		rng := rand.New(rand.NewSource(o.seed()*1000 + int64(li)))
		w := make([]int32, fig11Steps*fig11Lanes)
		perm := make([]int, len(w))
		group := []sched.Filter{sched.NewFilter(fig11Lanes, fig11Steps, w, nil)}
		sc := sched.NewScheduler()
		// Incremental log-sum geomeans, folded per series in trial order:
		// the same float result as collecting the per-trial speedups and
		// calling geomean. Speedups are always positive (cols >= 1), so
		// geomean's nonpositive guard never fired here.
		logSum := make([]float64, len(series))
		for trial := 0; trial < n; trial++ {
			sparsity.FillRandomSparse(rng, w, perm, sparsityLevels[li])
			for si, s := range series {
				cols := sc.ScheduleGroup(group, s.P, s.Alg)[0].Len()
				if cols == 0 {
					cols = 1
				}
				logSum[si] += math.Log(float64(fig11Steps) / float64(cols))
			}
		}
		for si := range series {
			out[si][li] = math.Exp(logSum[si] / float64(n))
		}
	})
	return out
}

// Fig11a reproduces Figure 11a: speedup vs weight sparsity for the
// lookahead/lookaside trade-off — T8<2,5>, T8<3,4>, T8<1,6> and T4<2,2> on
// randomly sparsified 3×3×512 filters.
func Fig11a(o Options) (*Table, error) {
	mk := func(name string) sched.Pattern {
		p, err := sched.ByName(name)
		if err != nil {
			panic(err)
		}
		return p
	}
	series := []struct {
		Label string
		P     sched.Pattern
		Alg   sched.Algorithm
	}{
		{"T8<2,5>", mk("T8<2,5>"), sched.Algorithm1},
		{"T8<3,4>", mk("T8<3,4>"), sched.Algorithm1},
		{"T8<1,6>", mk("T8<1,6>"), sched.Algorithm1},
		{"T4<2,2>", mk("T4<2,2>"), sched.Algorithm1},
	}
	res := fig11Sweep(o, series)
	return fig11Table("fig11a",
		"Speedup vs weight sparsity: lookahead/lookaside configurations "+
			fmt.Sprintf("(random 3x3x512 filters, %d/point)", o.trials()),
		series2labels(series), res), nil
}

// Fig11b reproduces Figure 11b: the effect of the scheduler (Algorithm 1 vs
// simple greedy) and the interconnect (Trident vs L) at each sparsity level.
func Fig11b(o Options) (*Table, error) {
	series := []struct {
		Label string
		P     sched.Pattern
		Alg   sched.Algorithm
	}{
		{"T8<2,5>/Alg1", sched.T(2, 5), sched.Algorithm1},
		{"T8<2,5>/greedy", sched.T(2, 5), sched.GreedySimple},
		{"L8<2,5>/Alg1", sched.L(2, 5), sched.Algorithm1},
		{"L8<2,5>/greedy", sched.L(2, 5), sched.GreedySimple},
	}
	res := fig11Sweep(o, series)
	return fig11Table("fig11b",
		"Speedup vs weight sparsity: scheduler and interconnect effects "+
			fmt.Sprintf("(random 3x3x512 filters, %d/point)", o.trials()),
		series2labels(series), res), nil
}

func series2labels(series []struct {
	Label string
	P     sched.Pattern
	Alg   sched.Algorithm
}) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func fig11Table(id, title string, labels []string, res [][]float64) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"Sparsity"}}
	t.Header = append(t.Header, labels...)
	for li, sp := range sparsityLevels {
		row := []string{fmt.Sprintf("%.0f%%", sp*100)}
		for si := range labels {
			row = append(row, f2(res[si][li]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
