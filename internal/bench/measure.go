package bench

import (
	"runtime"
	"testing"
	"time"
)

// RunOpts tunes how a suite measures.
type RunOpts struct {
	// MinTime is the minimum measured wall time per steady-state benchmark
	// row: the sim suite iterates until it has elapsed (always at least one
	// iteration), so a row's Iterations scales with the host instead of
	// being pinned at 1 by a fixed iteration count. Zero selects the
	// default. The sched suite, measured through testing.Benchmark,
	// calibrates to its own benchtime and ignores this.
	MinTime time.Duration
}

// defaultMinTime keeps the sim suite's measured window comparable to
// testing.Benchmark's default 1s benchtime.
const defaultMinTime = time.Second

func (o RunOpts) minTime() time.Duration {
	if o.MinTime > 0 {
		return o.MinTime
	}
	return defaultMinTime
}

// Measure runs fn under testing.Benchmark and packages the result as a
// Record. parallelism is the requested worker parallelism (0 when the
// benchmark has no worker pool); the record is tagged contended when it
// exceeds what the host can genuinely overlap. Wall and CPU time cover the
// whole calibration-and-measurement run — their ratio is what distinguishes
// a genuinely parallel measurement (CPU > wall) from a time-sliced one.
func Measure(id string, parallelism int, fn func(b *testing.B)) Record {
	wall0 := time.Now()
	cpu0 := processCPUNs()
	r := testing.Benchmark(fn)
	rec := Record{
		ID:          id,
		Parallelism: parallelism,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		AllocsPerOp: int64(r.AllocsPerOp()),
		WallNs:      time.Since(wall0).Nanoseconds(),
		CPUNs:       processCPUNs() - cpu0,
		Iterations:  r.N,
		Contended:   Contended(parallelism),
	}
	if r.N > 0 {
		rec.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return rec
}

// Contended reports whether a measurement at the requested parallelism
// would time-slice on this host: either the request exceeds GOMAXPROCS, or
// GOMAXPROCS itself overshoots the physical core count (an inflated
// GOMAXPROCS env on a small machine), in which case even "fitting" workers
// share cores.
func Contended(parallelism int) bool {
	procs := runtime.GOMAXPROCS(0)
	return parallelism > procs || (parallelism > 1 && procs > runtime.NumCPU())
}

// hostConcurrent reports whether this host can genuinely overlap workers.
func hostConcurrent() bool {
	return runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1
}

// NewFile starts a baseline file with the host header filled in.
func NewFile(context string) *File {
	f := &File{
		Schema:     Schema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Context:    context,
	}
	if f.GoMaxProcs == 1 {
		f.Note = "GOMAXPROCS=1: parallel runs cannot overlap on this host; speedup_vs_serial suppressed"
	} else if f.GoMaxProcs > f.NumCPU {
		f.Note = "GOMAXPROCS exceeds NumCPU: workers time-slice cores; parallel rows tagged contended and ns/op not comparable"
	}
	return f
}
