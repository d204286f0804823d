// Package bench is the repo's benchmark baseline format and regression
// gate. One schema covers the three committed baselines — BENCH_sched.json
// (the scheduling kernel in arena and fresh-copy mode), BENCH_sim.json
// (experiment runners through the engine), BENCH_serve.json (the tclserve
// HTTP tier under load) — and one comparison policy decides what counts as
// a regression:
//
//   - allocs/op compares everywhere: allocation counts are a property of
//     the code, not the host, so a >threshold growth fails the gate on any
//     machine, and a baseline of zero allocations must stay zero.
//   - ns/op — and the serve suite's p50/p99 latency percentiles — compare
//     only between runs of the same effective parallelism (equal
//     GOMAXPROCS) where neither side is contended; wall time measured on a
//     different host shape is noise, not signal.
//   - coalesce_hit_rate compares everywhere: the fraction of requests
//     served without their own engine run is a property of the serving
//     logic and load shape, not the host, so a drop fails the gate.
//   - alloc_parity compares everywhere against an absolute cap: a parallel
//     row's steady-state allocs/op must stay within AllocParityCap of its
//     suite's serial row, once the absolute excess clears AllocParityFloor
//     (the runtime's own O(workers) scheduler noise on a tiny base).
//     Allocation counts are host-independent, so a parallel path that
//     starts allocating per worker fails on any machine, threshold
//     notwithstanding.
//
// Baselines additionally refuse to be overwritten by a contended run
// (requested parallelism above the host's GOMAXPROCS) unless forced:
// a contended measurement is the serial engine plus scheduling overhead
// and would poison every later comparison.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema identifies the baseline layout; bump when Record changes shape.
// Schema 5 added the steady-state measurement fields (warmup_iterations,
// alloc_parity) and switched the sim suite from cold per-iteration cache
// rebuilds to warm steady-state measurement.
const Schema = 5

// Record is one benchmark measurement.
type Record struct {
	// ID uniquely names the measurement within its file, e.g.
	// "fig8a/j1", "sched/T8<2,5>/algorithm1/kernel", "serve/hot".
	ID string `json:"id"`
	// Parallelism is the requested worker parallelism (engine suites; 0
	// when the benchmark has no worker pool).
	Parallelism int `json:"parallelism,omitempty"`
	// GoMaxProcs is the effective GOMAXPROCS during this measurement.
	GoMaxProcs  int     `json:"go_max_procs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// WallNs and CPUNs are the totals over all iterations: wall clock and
	// process CPU time consumed. CPUNs > WallNs means real parallelism;
	// CPUNs ≈ WallNs on a serial or contended run.
	WallNs     int64 `json:"wall_ns"`
	CPUNs      int64 `json:"cpu_ns"`
	Iterations int   `json:"iterations"`
	// WarmupIterations is how many unmeasured iterations ran before the
	// measured window (steady-state suites; 0 = cold measurement). The
	// warmup pays the one-time costs — cache fills, arena growth, pool
	// warming — so Iterations and the per-op metrics describe pure steady
	// state.
	WarmupIterations int `json:"warmup_iterations,omitempty"`
	// AllocParity is this parallel row's steady-state allocs/op divided by
	// its suite's serial (j1) row — 1.0 means parallelism adds no
	// allocations. Emitted only on parallel rows whose serial sibling
	// allocated at all; gated everywhere against AllocParityCap.
	AllocParity float64 `json:"alloc_parity,omitempty"`
	// Speedup is ns/op of the suite's serial row over this row, emitted
	// only when the host could actually run workers concurrently.
	Speedup float64 `json:"speedup_vs_serial,omitempty"`
	// Contended marks measurements whose requested parallelism exceeds
	// the host's real concurrency (GOMAXPROCS, or NumCPU when GOMAXPROCS
	// overshoots it): workers time-slice cores, so ns/op is not comparable.
	Contended bool `json:"contended,omitempty"`

	// Serving-tier metrics (the serve suite; zero elsewhere). P50Ns/P99Ns
	// are client-observed request latency percentiles and follow the ns/op
	// comparison policy; RPS is informational (throughput is the inverse of
	// latency at fixed concurrency, so gating it would double-count);
	// CoalesceHitRate is the fraction of requests served without their own
	// engine run — a load-shape property, gated on every host.
	P50Ns           float64 `json:"p50_ns,omitempty"`
	P99Ns           float64 `json:"p99_ns,omitempty"`
	RPS             float64 `json:"rps,omitempty"`
	CoalesceHitRate float64 `json:"coalesce_hit_rate,omitempty"`

	// Shard-balance metrics (the serve suite's partition rows; zero
	// elsewhere). Pure arithmetic over predicted per-layer costs — no
	// timing, so host-independent and gated everywhere. ShardImbalance is
	// max/mean predicted shard cost (1.0 = perfectly balanced, higher =
	// worse); Max and Mean are kept for context.
	ShardMaxCost   float64 `json:"shard_max_cost,omitempty"`
	ShardMeanCost  float64 `json:"shard_mean_cost,omitempty"`
	ShardImbalance float64 `json:"shard_imbalance,omitempty"`
}

// File is one committed baseline.
type File struct {
	Schema     int      `json:"schema"`
	Generated  string   `json:"generated"`
	GoMaxProcs int      `json:"go_max_procs"`
	NumCPU     int      `json:"num_cpu"`
	Context    string   `json:"context,omitempty"`
	Note       string   `json:"note,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// Contended reports whether any measurement in the file is contended.
func (f *File) Contended() bool {
	for _, r := range f.Benchmarks {
		if r.Contended {
			return true
		}
	}
	return false
}

// Load reads a baseline file.
func Load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Write stores the file unconditionally.
func (f *File) Write(path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// WriteBaseline stores f at path, refusing to overwrite an existing
// baseline with a contended run unless force is set. A fresh path (no
// baseline yet) always writes, but the contended taint is still recorded
// in the file for Compare to see.
func WriteBaseline(path string, f *File, force bool) error {
	if !force && f.Contended() {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("bench: refusing to overwrite %s with a contended run (parallelism beyond GOMAXPROCS=%d); rerun on a bigger host or pass -force", path, f.GoMaxProcs)
		}
	}
	return f.Write(path)
}

// AllocParityCap is the absolute alloc_parity bound: a parallel row may
// allocate at most this multiple of its serial sibling in steady state.
// The slack absorbs the honest per-pool-entry costs (spawning worker
// goroutines, per-worker metric folds) without admitting per-item or
// per-worker allocation amplification.
const AllocParityCap = 1.05

// AllocParityFloor is the minimum absolute allocs/op excess (parallel
// minus serial) before the parity cap fires. Running workers concurrently
// makes the Go runtime itself allocate a handful of objects per run —
// goroutine descriptors when the free list runs dry, sudog parking blocks
// under mutex contention — costs that are O(workers), not O(work). On a
// row whose serial base is tiny, that fixed noise alone can exceed 5%;
// the floor keeps such rows honest without letting real amplification
// through (amplification scales with the work, so it clears any floor).
const AllocParityFloor = 16

// Regression is one gate failure: a current metric more than threshold
// worse than its baseline.
type Regression struct {
	ID       string
	Metric   string // "ns/op", "allocs/op", "p50", "p99", "coalesce_hit_rate", "shard_imbalance", or "alloc_parity"
	Baseline float64
	Current  float64
	Ratio    float64 // Current / Baseline (+Inf for a zero baseline)
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx)", r.ID, r.Metric, r.Baseline, r.Current, r.Ratio)
}

// Result is the outcome of one baseline comparison.
type Result struct {
	Regressions []Regression
	// SkippedNs lists IDs whose ns/op comparison was skipped under the
	// matching-host policy (GOMAXPROCS mismatch or a contended side).
	SkippedNs []string
	// Missing lists baseline IDs absent from the current run — a silently
	// dropped benchmark must not pass the gate.
	Missing []string
}

// Fail reports whether the gate should fail: any regression or any
// baseline measurement missing from the current run.
func (r Result) Fail() bool { return len(r.Regressions) > 0 || len(r.Missing) > 0 }

// Compare applies the gate policy to a current run against its baseline.
// threshold is fractional: 0.10 fails anything more than 10% worse.
func Compare(baseline, current *File, threshold float64) Result {
	var res Result
	cur := make(map[string]Record, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.ID] = r
	}
	for _, b := range baseline.Benchmarks {
		c, ok := cur[b.ID]
		if !ok {
			res.Missing = append(res.Missing, b.ID)
			continue
		}
		// Allocation counts are host-independent; a zero baseline is a
		// zero-alloc guarantee and any allocation at all breaks it.
		switch {
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			res.Regressions = append(res.Regressions, Regression{
				ID: b.ID, Metric: "allocs/op",
				Baseline: 0, Current: float64(c.AllocsPerOp),
				Ratio: float64(c.AllocsPerOp),
			})
		case float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+threshold):
			res.Regressions = append(res.Regressions, Regression{
				ID: b.ID, Metric: "allocs/op",
				Baseline: float64(b.AllocsPerOp), Current: float64(c.AllocsPerOp),
				Ratio: float64(c.AllocsPerOp) / float64(b.AllocsPerOp),
			})
		}
		if b.Contended || c.Contended || b.GoMaxProcs != c.GoMaxProcs {
			res.SkippedNs = append(res.SkippedNs, b.ID)
		} else {
			for _, m := range []struct {
				name       string
				base, curr float64
			}{
				{"ns/op", b.NsPerOp, c.NsPerOp},
				{"p50", b.P50Ns, c.P50Ns},
				{"p99", b.P99Ns, c.P99Ns},
			} {
				if m.base > 0 && m.curr > m.base*(1+threshold) {
					res.Regressions = append(res.Regressions, Regression{
						ID: b.ID, Metric: m.name,
						Baseline: m.base, Current: m.curr,
						Ratio: m.curr / m.base,
					})
				}
			}
		}
		// The coalesce hit rate is a property of the serving logic and the
		// load shape, not of the host: a drop means requests stopped sharing
		// engine runs, and it gates everywhere (lower is worse).
		if b.CoalesceHitRate > 0 && c.CoalesceHitRate < b.CoalesceHitRate*(1-threshold) {
			res.Regressions = append(res.Regressions, Regression{
				ID: b.ID, Metric: "coalesce_hit_rate",
				Baseline: b.CoalesceHitRate, Current: c.CoalesceHitRate,
				Ratio: c.CoalesceHitRate / b.CoalesceHitRate,
			})
		}
		// Shard imbalance is pure arithmetic over predicted layer costs —
		// deterministic and host-independent — so a partitioner change that
		// skews shard loads fails the gate on any machine (higher is worse).
		if b.ShardImbalance > 0 && c.ShardImbalance > b.ShardImbalance*(1+threshold) {
			res.Regressions = append(res.Regressions, Regression{
				ID: b.ID, Metric: "shard_imbalance",
				Baseline: b.ShardImbalance, Current: c.ShardImbalance,
				Ratio: c.ShardImbalance / b.ShardImbalance,
			})
		}
		// Alloc parity is an absolute, host-independent bound, not a drift
		// check: allocation counts do not depend on core count or clock
		// speed, so a parallel row allocating more than AllocParityCap times
		// its serial sibling fails on every host, contended or not, and the
		// fractional threshold does not loosen it. The baseline row opts the
		// rule in by carrying a parity value (old-schema rows without one
		// are not retroactively gated). Rows whose absolute excess over the
		// serial base stays within AllocParityFloor pass regardless of the
		// ratio: on a near-zero-alloc base the runtime's own O(workers)
		// scheduler noise can exceed 5% without any amplification in the
		// measured code.
		if b.AllocParity > 0 && c.AllocParity > AllocParityCap {
			excess := float64(c.AllocsPerOp) - float64(c.AllocsPerOp)/c.AllocParity
			if excess > AllocParityFloor {
				res.Regressions = append(res.Regressions, Regression{
					ID: b.ID, Metric: "alloc_parity",
					Baseline: AllocParityCap, Current: c.AllocParity,
					Ratio: c.AllocParity / AllocParityCap,
				})
			}
		}
	}
	sort.Slice(res.Regressions, func(i, j int) bool {
		a, b := res.Regressions[i], res.Regressions[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Metric < b.Metric
	})
	return res
}
