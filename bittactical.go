// Package bittactical is the public API of the Bit-Tactical (TCL)
// reproduction: a software scheduler that statically plans sparse-weight
// promotions for a lightweight hardware front-end, two bit-serial
// activation back-ends (TCLp: dynamic precision; TCLe: Booth effectual
// terms), a column-exact simulator for the whole design family, and the
// experiment harness that regenerates every table and figure of the ASPLOS
// 2019 paper.
//
// The three-call tour:
//
//	model, _ := bittactical.BuildModel("AlexNet-ES", bittactical.DefaultZoo())
//	acts := model.GenerateActs(1)
//	res, _ := bittactical.Simulate(bittactical.TCLe(bittactical.Trident(2, 5)), model, acts)
//	fmt.Printf("%.2fx over DaDianNao++\n", res.Speedup())
//
// Deeper layers live under internal/ (see README.md for the map); this
// package re-exports the surface a downstream user needs: the model zoo,
// connectivity patterns, accelerator configurations, the scheduler, the
// simulator, and the experiment registry.
package bittactical

import (
	"context"
	"fmt"
	"math"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	_ "bittactical/internal/backend/dstripes" // register the plugin back-end
	"bittactical/internal/experiments"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/tensor"
	_ "bittactical/internal/workloads/attention" // register the transformer-era workload zoo
)

// ---- model zoo ----

// Model is an instantiated evaluation network.
type Model = nn.Model

// ZooConfig controls zoo instantiation (scale, width, seed).
type ZooConfig = nn.ZooConfig

// DefaultZoo returns the configuration the experiments use.
func DefaultZoo() ZooConfig { return nn.DefaultZoo() }

// ModelNames lists the paper's seven evaluation networks.
func ModelNames() []string { return append([]string(nil), nn.ModelNames...) }

// Models lists every registered workload, sorted: the paper's seven plus
// any zoo registered via an nn.Register init — this package links the
// transformer-era attention workloads (internal/workloads/attention).
func Models() []string { return nn.Names() }

// BuildModel instantiates any registered workload by name
// (case-insensitive; see Models).
func BuildModel(name string, cfg ZooConfig) (*Model, error) { return nn.BuildModel(name, cfg) }

// ---- front-end connectivity & scheduling ----

// Pattern is a front-end connectivity configuration.
type Pattern = sched.Pattern

// Trident returns the sparse T<h,d> pattern of Figure 3b — the paper's
// co-designed interconnect. Patterns are bounded at h+d = 64 offsets:
// past that, Schedule and the simulators return a validation error.
func Trident(h, d int) Pattern { return sched.T(h, d) }

// LShape returns the contiguous L<h,d> pattern of Figure 3a, bounded like
// Trident at h+d = 64 offsets.
func LShape(h, d int) Pattern { return sched.L(h, d) }

// PatternByName resolves the paper's configuration labels ("T8<2,5>", …).
func PatternByName(name string) (Pattern, error) { return sched.ByName(name) }

// Schedule statically schedules one filter (a Steps×Lanes dense weight
// matrix, step-major) under the pattern with the paper's Algorithm 1 and
// returns the verified schedule: per column, one (Weight, Src) slot per
// lane, Src naming the weight's dense position step*lanes + lane and
// Pattern.Select the mux input that reaches it. It returns an error when
// lanes or steps is below 1, when weights does not hold exactly lanes×steps
// values (below 2^31), or when the pattern does not validate.
func Schedule(lanes, steps int, weights []int32, p Pattern) (*sched.Schedule, error) {
	// Divide rather than multiply: lanes*steps can wrap to len(weights).
	if lanes < 1 || steps < 1 || len(weights)%lanes != 0 || len(weights)/lanes != steps ||
		len(weights) > math.MaxInt32 {
		return nil, fmt.Errorf("bittactical: %d weights do not fill %d steps × %d lanes (both ≥ 1, < 2^31 slots)",
			len(weights), steps, lanes)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := sched.NewFilter(lanes, steps, weights, nil)
	s := sched.ScheduleFilter(f, p, sched.Algorithm1)
	if err := sched.Verify(f, p, s); err != nil {
		return nil, err
	}
	return s, nil
}

// ---- accelerator configurations ----

// Config is a hardware configuration (Table 2).
type Config = arch.Config

// DaDianNaoPP returns the dense bit-parallel baseline.
func DaDianNaoPP() Config { return arch.DaDianNaoPP() }

// FrontEndOnly returns weight skipping over a bit-parallel back-end
// (Figure 8a's subject).
func FrontEndOnly(p Pattern) Config { return arch.FrontEndOnly(p) }

// TCLp returns the dynamic-precision bit-serial design with pattern p.
func TCLp(p Pattern) Config { return arch.TCLp(p) }

// TCLe returns the Booth effectual-term design with pattern p.
func TCLe(p Pattern) Config { return arch.TCLe(p) }

// Backends lists every registered activation back-end by name — the paper's
// three plus any plugin registered via a backend.Register init (this package
// links dstripes-sm, the sign-magnitude streaming extension).
func Backends() []string { return backend.Names() }

// ConfigForBackend returns the TCL design with pattern p and the named
// activation back-end, resolved through the process-wide registry.
// ConfigForBackend("TCLp", p) is TCLp(p); ConfigForBackend("dstripes-sm", p)
// runs the plugin with no engine changes.
func ConfigForBackend(name string, p Pattern) (Config, error) {
	be, err := backend.Lookup(name)
	if err != nil {
		return Config{}, err
	}
	return arch.NewTCL(p, be), nil
}

// ---- simulation ----

// Result is a network simulation outcome.
type Result = sim.Result

// Tensor is a dense 4-D fixed-point tensor.
type Tensor = tensor.T

// SimOptions tunes the simulation engine (worker parallelism, schedule
// cache) without affecting results: output is bit-identical at any setting.
type SimOptions = sim.Options

// Simulate runs every layer of the model under the configuration using the
// default engine options: one worker per CPU and the shared schedule cache.
func Simulate(cfg Config, m *Model, acts []*Tensor) (*Result, error) {
	return SimulateContext(context.Background(), cfg, m, acts, SimOptions{})
}

// SimulateOpts is Simulate with explicit engine options.
func SimulateOpts(cfg Config, m *Model, acts []*Tensor, opts SimOptions) (*Result, error) {
	return SimulateContext(context.Background(), cfg, m, acts, opts)
}

// SimulateContext is SimulateOpts under a context: cancellation or a
// deadline stops the engine's workers from claiming further work and
// returns ctx.Err() with no partial result. An uncancelled context yields
// output bit-identical to SimulateOpts.
func SimulateContext(ctx context.Context, cfg Config, m *Model, acts []*Tensor, opts SimOptions) (*Result, error) {
	rs, err := sim.SimulateSweepContext(ctx, []Config{cfg}, m, acts, opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ---- experiments ----

// ExperimentOptions configures an experiment runner.
type ExperimentOptions = experiments.Options

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opts ExperimentOptions) (*experiments.Table, error) {
	run, ok := experiments.Registry[id]
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return run(opts)
}

// UnknownExperimentError reports an unrecognized experiment id.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "bittactical: unknown experiment " + e.ID
}
