package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"bittactical/internal/sparsity"
)

// benchGroup builds a Table-2-sized filter group: 16 filters (one tile's PE
// rows) × 16 lanes × 54 dense steps at 70% sparsity — the geometry and
// density regime of the paper's pruned conv layers.
func benchGroup(seed int64) []Filter {
	rng := rand.New(rand.NewSource(seed))
	const lanes, steps, nf = 16, 54, 16
	filters := make([]Filter, nf)
	for i := range filters {
		filters[i] = NewFilter(lanes, steps, sparsity.RandomSparseFilter(rng, steps, lanes, 0.7), nil)
	}
	return filters
}

// benchConfigs is the pattern × algorithm sweep the scheduler benchmarks
// cover: the Table-2 pattern family under each promotion heuristic.
func benchConfigs() []struct {
	p   Pattern
	alg Algorithm
} {
	var out []struct {
		p   Pattern
		alg Algorithm
	}
	for _, p := range []Pattern{L(1, 2), L(2, 5), T(2, 5), T(1, 6)} {
		for _, alg := range []Algorithm{Algorithm1, GreedySimple, Matching} {
			out = append(out, struct {
				p   Pattern
				alg Algorithm
			}{p, alg})
		}
	}
	return out
}

// BenchmarkScheduleGroup measures the optimized kernel in steady state: one
// reused Scheduler, schedules written into its arena. This is the
// allocation-free hot path; allocs/op must be 0.
func BenchmarkScheduleGroup(b *testing.B) {
	filters := benchGroup(1)
	for _, c := range benchConfigs() {
		b.Run(fmt.Sprintf("%s/%s", c.p.Name, c.alg), func(b *testing.B) {
			sc := NewScheduler()
			sc.ScheduleGroup(filters, c.p, c.alg) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.ScheduleGroup(filters, c.p, c.alg)
			}
		})
	}
}

// BenchmarkScheduleGroupFresh measures the pooled package entry point, which
// copies the arena into retainable schedules (the schedule-cache fill path).
func BenchmarkScheduleGroupFresh(b *testing.B) {
	filters := benchGroup(1)
	for _, c := range benchConfigs() {
		b.Run(fmt.Sprintf("%s/%s", c.p.Name, c.alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScheduleGroup(filters, c.p, c.alg)
			}
		})
	}
}

// BenchmarkScheduleGroupReference measures the pre-optimization scheduler
// kept in reference_test.go as the differential-fuzz specification, for the
// kernel-vs-reference ratio (BENCH_sched.json records only the kernel and
// fresh rows).
func BenchmarkScheduleGroupReference(b *testing.B) {
	filters := benchGroup(1)
	for _, c := range benchConfigs() {
		b.Run(fmt.Sprintf("%s/%s", c.p.Name, c.alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ScheduleGroupReference(filters, c.p, c.alg)
			}
		})
	}
}
