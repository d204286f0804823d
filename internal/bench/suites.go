package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"bittactical/internal/experiments"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/sparsity"
)

// Logf is the progress callback the suites report through (one line per
// measurement); nil silences them.
type Logf func(format string, args ...any)

func (l Logf) printf(format string, args ...any) {
	if l != nil {
		l(format, args...)
	}
}

// simOptions sizes the zoo exactly like the repo's benchmark suite
// (bench_test.go): all seven networks and every layer type in minutes.
func simOptions() experiments.Options {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.125, 0.35
	return experiments.Options{Zoo: z, Trials: 25}
}

// RunSim measures the fig8/fig11 experiment runners through the whole
// engine at parallelism 1 and 8, in steady state: the shared schedule and
// plane caches are reset once per row, unmeasured warmup iterations
// rebuild them (and warm every arena and pool) with the GC already
// pinned off — repeating until per-run allocations settle, since
// parallel rows converge over a few runs as per-worker arenas ratchet up
// under the racing claim order — and the measured window then iterates
// until opts.MinTime has elapsed (and at least steadyMinIters iterations
// have run). allocs/op is therefore the exact per-run steady-state
// malloc count (ReadMemStats deltas, not sampled), undiluted by warmup
// and undisturbed by pool-clearing GC cycles; warmup_iterations records
// how many runs convergence took. Parallel rows carry alloc_parity (their
// allocs/op over the serial row's) gated against AllocParityCap;
// speedup_vs_serial is emitted only when the host can actually overlap
// workers.
func RunSim(logf Logf, opts RunOpts) (*File, error) {
	f := NewFile("zoo channel scale 0.125, spatial scale 0.35, 25 trials; steady state (adaptive warmup, caches warm, GC pinned)")
	concurrent := hostConcurrent()
	serial := map[string]Record{}
	for _, id := range []string{"fig8a", "fig8b", "fig11a", "fig11b", "attn-fig8"} {
		if experiments.Registry[id] == nil {
			return nil, fmt.Errorf("bench: unknown experiment %q", id)
		}
		for _, par := range []int{1, 8} {
			rec, err := measureSteadySim(id, par, opts.minTime())
			if err != nil {
				return nil, err
			}
			if par == 1 {
				serial[id] = rec
			} else {
				s := serial[id]
				if concurrent && s.NsPerOp > 0 && rec.NsPerOp > 0 {
					rec.Speedup = s.NsPerOp / rec.NsPerOp
				}
				if s.AllocsPerOp > 0 {
					rec.AllocParity = float64(rec.AllocsPerOp) / float64(s.AllocsPerOp)
				}
			}
			f.Benchmarks = append(f.Benchmarks, rec)
			logf.printf("%s: %.0f ns/op, %d allocs/op (%d iters, %d warmup, parity %.3f)",
				rec.ID, rec.NsPerOp, rec.AllocsPerOp, rec.Iterations, rec.WarmupIterations, rec.AllocParity)
		}
	}
	return f, nil
}

// steadyMinIters is the floor on measured iterations per steady-state
// row, independent of the time floor: a slow host where one run exceeds
// MinTime would otherwise measure a single iteration, and any one-time
// residual warm-up allocation would land on it undiluted.
const steadyMinIters = 3

// steadyMaxWarmups caps the adaptive warmup. One warmup fills the caches;
// the rest exist because parallel rows converge gradually: per-worker
// arenas ratchet up to the largest group each worker happens to claim,
// and the racing claim order means a worker can first meet its largest
// group several runs in. Warmup therefore repeats until two consecutive
// runs allocate the same to within steadySettled (so the ratchet has
// stopped moving), bounded here so a genuinely noisy workload cannot
// warm up forever.
const steadyMaxWarmups = 8

// steadySettled is the per-run malloc-delta tolerance under which two
// consecutive warmup runs count as converged: within 2% or 8 allocations,
// whichever is larger (tiny rows jitter by a few allocs from scheduler
// timing; large rows by a fraction of a percent).
func steadySettled(prev, cur int64) bool {
	d := cur - prev
	if d < 0 {
		d = -d
	}
	tol := prev / 50
	if tol < 8 {
		tol = 8
	}
	return d <= tol
}

// measureSteadySim is one steady-state row: cold reset, then — with the
// GC already pinned off — warmup runs until per-run allocations settle,
// and a measured window of at least minTime and at least steadyMinIters
// iterations.
func measureSteadySim(id string, par int, minTime time.Duration) (Record, error) {
	run := experiments.Registry[id]
	opts := simOptions()
	opts.Parallelism = par
	sched.Shared.Reset()
	sim.SharedPlanes.Reset()
	wall0 := time.Now()
	cpu0 := processCPUNs()
	// Pin the GC off before the warmup, not just the measured window: a
	// collection clears the sync.Pools (arenas, worker state, pooled
	// coordination blocks), so one mid-warmup or post-warmup collection
	// would charge the refill to whichever measured iteration happened to
	// follow — allocation counts would depend on GC timing instead of the
	// code. With the GC pinned the warmup leaves every pool maximally
	// warm and the window measures the true steady state.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	var m0, m1 runtime.MemStats
	warmups, prev := 0, int64(-1)
	for warmups < steadyMaxWarmups {
		runtime.ReadMemStats(&m0)
		if _, err := run(opts); err != nil {
			return Record{}, err
		}
		runtime.ReadMemStats(&m1)
		warmups++
		d := int64(m1.Mallocs - m0.Mallocs)
		if prev >= 0 && steadySettled(prev, d) {
			break
		}
		prev = d
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	iters := 0
	for iters < steadyMinIters || time.Since(t0) < minTime {
		if _, err := run(opts); err != nil {
			return Record{}, err
		}
		iters++
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return Record{
		ID:               fmt.Sprintf("%s/j%d", id, par),
		Parallelism:      par,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		NsPerOp:          float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp:      int64(m1.Mallocs-m0.Mallocs) / int64(iters),
		WallNs:           time.Since(wall0).Nanoseconds(),
		CPUNs:            processCPUNs() - cpu0,
		Iterations:       iters,
		WarmupIterations: warmups,
		Contended:        Contended(par),
	}, nil
}

// schedGroup is the Table-2-sized filter group the scheduler suite runs
// on: 16 filters (one tile's PE rows) × 16 lanes × 54 dense steps at 70%
// sparsity — the geometry and density regime of the paper's pruned conv
// layers.
func schedGroup(seed int64) []sched.Filter {
	rng := rand.New(rand.NewSource(seed))
	const lanes, steps, nf = 16, 54, 16
	filters := make([]sched.Filter, nf)
	for i := range filters {
		filters[i] = sched.NewFilter(lanes, steps, sparsity.RandomSparseFilter(rng, steps, lanes, 0.7), nil)
	}
	return filters
}

// RunSched measures the scheduling kernel per (pattern, algorithm): the
// arena-mode kernel in steady state (the zero-alloc hot path) and the
// pooled fresh-copy entry point (four exact allocations per group).
func RunSched(logf Logf, _ RunOpts) (*File, error) {
	f := NewFile("16 filters x 16 lanes x 54 steps, 70% sparsity")
	filters := schedGroup(1)
	for _, p := range []sched.Pattern{sched.L(1, 2), sched.L(2, 5), sched.T(2, 5), sched.T(1, 6)} {
		for _, alg := range []sched.Algorithm{sched.Algorithm1, sched.GreedySimple, sched.Matching} {
			base := fmt.Sprintf("sched/%s/%s", p.Name, alg)
			sc := sched.NewScheduler()
			sc.ScheduleGroup(filters, p, alg) // warm the arena
			for _, v := range []struct {
				name string
				fn   func()
			}{
				{"kernel", func() { sc.ScheduleGroup(filters, p, alg) }},
				{"fresh", func() { sched.ScheduleGroup(filters, p, alg) }},
			} {
				rec := Measure(base+"/"+v.name, 0, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						v.fn()
					}
				})
				f.Benchmarks = append(f.Benchmarks, rec)
				logf.printf("%s: %.0f ns/op, %d allocs/op", rec.ID, rec.NsPerOp, rec.AllocsPerOp)
			}
		}
	}
	return f, nil
}

// Suite names a runnable benchmark suite and its committed baseline file.
type Suite struct {
	Name string
	File string // baseline filename relative to the repo root
	Run  func(Logf, RunOpts) (*File, error)
}

// Suites are the repo's three committed baselines in gate order.
var Suites = []Suite{
	{Name: "sched", File: "BENCH_sched.json", Run: RunSched},
	{Name: "sim", File: "BENCH_sim.json", Run: RunSim},
	{Name: "serve", File: "BENCH_serve.json", Run: RunServe},
}

// SuiteByName returns the named suite, or nil.
func SuiteByName(name string) *Suite {
	for i := range Suites {
		if Suites[i].Name == name {
			return &Suites[i]
		}
	}
	return nil
}
