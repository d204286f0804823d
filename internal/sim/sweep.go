package sim

import (
	"context"
	"fmt"
	"sync"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/tensor"
)

// SimulateLayerContext runs one lowered layer under the configuration and
// returns cycles, the Figure-9 censuses, and datapath activity. It is the
// one-cell case of SimulateLoweredSweepContext, with the same validation
// and cancellation.
//
// Mapping (Section 5.3): filters are assigned to tiles and PE rows; the
// serial back-ends process WindowsPerTile activation windows concurrently
// across PE columns. Layers with fewer windows than columns (CNN
// fully-connected layers) split the reduction across spare columns instead,
// combining partial sums over the per-row ring.
func SimulateLayerContext(ctx context.Context, cfg arch.Config, lw *nn.Lowered, opts Options) (LayerResult, error) {
	rs, err := SimulateLoweredSweepContext(ctx, []arch.Config{cfg}, [][]*nn.Lowered{{lw}}, opts)
	if err != nil {
		return LayerResult{}, err
	}
	return rs[0][0], nil
}

// SimulateSweepContext runs one model under several configurations — the
// shape of a tclserve /v1/simulate request or a figure sweep — as a single
// engine invocation. Every config's (layer, filter group) items are
// flattened into one queue on one worker pool, so independent configs
// overlap instead of executing back to back, and the tail of one config's
// largest layer no longer idles the pool before the next config starts.
// The model is lowered once per distinct lane count, so configs of one lane
// count share a lowering (its memo and content hash), and row-invariant
// layers' activation cost planes are resolved through the options' plane
// cache, so configs sharing a (back-end, width) share planes. Results are
// returned in config order, each bit-identical to a sweep of that config
// alone.
//
// A slice of a model's layers is a model of its own: a shard worker builds
// an nn.Model of its layers and their activation tensors and calls this.
// Validation and cancellation match SimulateLoweredSweepContext.
func SimulateSweepContext(ctx context.Context, cfgs []arch.Config, m *nn.Model, acts []*tensor.T, opts Options) ([]*Result, error) {
	lwByLanes := make(map[int][]*nn.Lowered)
	lwss := make([][]*nn.Lowered, len(cfgs))
	for k, cfg := range cfgs {
		lws, ok := lwByLanes[cfg.Lanes]
		if !ok {
			var err error
			if lws, err = m.Lowered(cfg.Lanes, acts); err != nil {
				return nil, err
			}
			lwByLanes[cfg.Lanes] = lws
		}
		lwss[k] = lws
	}
	layerss, err := SimulateLoweredSweepContext(ctx, cfgs, lwss, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(cfgs))
	for k, cfg := range cfgs {
		out[k] = &Result{Config: cfg.Name, Layers: layerss[k]}
	}
	return out, nil
}

// SimulateLoweredSweepContext is the pre-lowered batch entry: cell k runs
// config cfgs[k] over exactly the lowered layers lwss[k], all flattened
// into one engine invocation on one worker pool. Unlike
// SimulateSweepContext the cells need not share a model — this is how a
// whole figure (every config × every zoo model) becomes one pool run
// instead of hundreds, which is what lets the experiment drivers hit the
// engine's zero-alloc steady state. Each cell's layer results are
// bit-identical to a standalone run of that (config, layers) pair at any
// Parallelism.
//
// Every config must validate and have at most 128 lanes, and every
// lowered layer must have been lowered at its config's lane count;
// otherwise it returns an error.
// Cancellation is all-or-nothing: when ctx is cancelled or its deadline
// passes, workers stop claiming filter groups — each worker's in-flight
// group finishes first — and the call returns (nil, ctx.Err()) with no
// partial results for any cell.
func SimulateLoweredSweepContext(ctx context.Context, cfgs []arch.Config, lwss [][]*nn.Lowered, opts Options) ([][]LayerResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(cfgs) != len(lwss) {
		return nil, fmt.Errorf("sim: %d configs against %d layer lists", len(cfgs), len(lwss))
	}
	for k, cfg := range cfgs {
		if err := validate(cfg); err != nil {
			return nil, err
		}
		for _, lw := range lwss[k] {
			if lw.Lanes != cfg.Lanes {
				return nil, fmt.Errorf("sim: config %q has %d lanes but layer %q was lowered at %d",
					cfg.Name, cfg.Lanes, lw.Name, lw.Lanes)
			}
		}
	}
	return simulateSweep(ctx, cfgs, lwss, opts)
}

// validate is cfg.Validate, a hardware check, plus the engine's own
// bound: the window walk's column kernels are exact for PEs of at most
// maxLanes lanes (kernel.go).
func validate(cfg arch.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Lanes > maxLanes {
		return fmt.Errorf("sim: config %q has %d lanes; the engine simulates PEs of at most %d", cfg.Name, cfg.Lanes, maxLanes)
	}
	return nil
}

// LayerSchedules walks lw's filter groups in order under cfg, grouped
// exactly as the engine groups them (FiltersPerTile filters each, the last
// one short), and calls fn with each group's first filter index, its
// filters and their schedules. Front-end schedules come from sched.Shared,
// the cache the engine uses by default, under the group keys in lw's memo,
// so a walk after a simulation of the same (config, layer) schedules and
// hashes nothing; configs without a front end get the dense schedule. fn
// may keep a front-end schedule, which the cache owns; the filters and
// dense schedules are valid only until fn returns.
//
// The walk is serial: it spawns nothing and never enters the engine's
// pool. Filters take lw's own lane count, which the engine requires to be
// cfg's. It returns cfg's validation error or the first error fn returns.
func LayerSchedules(cfg arch.Config, lw *nn.Lowered, fn func(f0 int, filters []sched.Filter, schedules []*sched.Schedule) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	keyer := sched.Shared.Keyer(cfg.Pattern, cfg.Scheduler)
	groups := cfg.FilterGroups(lw.Filters)
	var keys *sched.MemoTable[sched.GroupKey]
	if cfg.HasFrontEnd() {
		keys = lw.Memo().Keys(cfg.FiltersPerTile, groups)
	}
	sc := walkScratch.Get().(*groupScratch)
	defer walkScratch.Put(sc)
	for g := 0; g < groups; g++ {
		f0 := g * cfg.FiltersPerTile
		rows := groupRows{sc: sc, lw: lw, f0: f0, f1: min(f0+cfg.FiltersPerTile, lw.Filters)}
		schedules := groupSchedules(&rows, cfg, g, &keyer, keys)
		if err := fn(f0, rows.filters(), schedules); err != nil {
			return err
		}
	}
	return nil
}

// walkScratch recycles LayerSchedules' arenas across walks. A walk's arena
// cannot live on its stack: the row source it hands the schedule cache,
// which calls it on a miss, keeps the arena reachable.
var walkScratch = sync.Pool{New: func() any { return new(groupScratch) }}
