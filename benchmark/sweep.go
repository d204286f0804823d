package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"bittactical/internal/arch"
	"bittactical/internal/experiments"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/serve"
	"bittactical/internal/sim"
	"bittactical/internal/tensor"
)

// zooWarm is the steady-state engine behind repeated sweeps. Setup builds
// and lowers every registered model and runs one untimed pass that fills
// the private schedule and plane caches; one op is then one
// SimulateLoweredSweepContext over every (model, default config) cell, with
// every schedule and plane a cache hit.
type zooWarm struct {
	prof  profile
	seed  int64
	opts  sim.Options
	cfgs  []arch.Config
	lwss  [][]*nn.Lowered
	cells []string
	want  *digest
}

func (w *zooWarm) clients() int { return 1 }

func (w *zooWarm) setup(ctx context.Context) (*digest, error) {
	cfgs, err := buildConfigs(serve.DefaultConfigs())
	if err != nil {
		return nil, err
	}
	models, acts, err := buildModels(spanRef{}, w.prof, w.seed)
	if err != nil {
		return nil, err
	}
	if w.cfgs, w.lwss, w.cells, err = lowerCells(spanRef{}, models, acts, cfgs); err != nil {
		return nil, err
	}
	w.opts = sim.Options{Parallelism: enginePar, Cache: sched.NewCache(0), PlaneCache: sim.NewPlaneCache(0)}
	res, err := sim.SimulateLoweredSweepContext(ctx, w.cfgs, w.lwss, w.opts)
	if err != nil {
		return nil, err
	}
	w.want = sweepDigest(w.cells, res)
	return w.want, nil
}

func (w *zooWarm) op(ctx context.Context, _ opID, sp spanRef) opResult {
	if sp.on() {
		// The engine call below looks the same schedules up again, so this
		// lookup pass is extra work the untraced pass does not do.
		s := sp.replay("sched.schedule")
		preschedule(w.opts.Cache, w.cfgs, w.lwss)
		s.end()
	}
	e := sp.counted("sim.engine")
	res, err := sim.SimulateLoweredSweepContext(ctx, w.cfgs, w.lwss, w.opts)
	e.end()
	if err != nil {
		return opResult{err: err}
	}
	if sp.on() {
		if err := replayLayers(ctx, sp, w.cfgs, w.lwss, w.opts, res); err != nil {
			return opResult{err: err}
		}
	}
	c := sp.child("bench.check")
	defer c.end()
	if d := sweepDigest(w.cells, res).diff(w.want); d != "" {
		return opResult{err: fmt.Errorf("pass output differs from the first pass: %s", d)}
	}
	return opResult{}
}

func (w *zooWarm) counters() counters {
	return counters{sched: w.opts.Cache.Stats(), plane: w.opts.PlaneCache.Stats()}
}

func (w *zooWarm) finish(context.Context) []error { return nil }
func (w *zooWarm) close()                         {}

// designCold evaluates freshly pruned weights. One op builds the models and
// their activations, sweeps the Table-2 patterns under TCLe with a private
// schedule and plane cache made for that pass (so every group is scheduled
// once per pattern), and runs the Figure 11 scheduler experiments.
type designCold struct {
	prof profile
	seed int64
	cfgs []arch.Config
	want *digest

	// Cache counters summed over passes; each pass's caches are new.
	sched sched.CacheStats
	plane sim.PlaneCacheStats
}

// table2Patterns are the connectivity patterns of the paper's Table 2.
var table2Patterns = []string{"L4<1,2>", "L8<2,5>", "L8<6,1>", "T8<2,5>", "T8<1,6>", "T4<2,2>"}

func (w *designCold) clients() int { return 1 }

func (w *designCold) setup(ctx context.Context) (*digest, error) {
	specs := make([]serve.ConfigSpec, len(table2Patterns))
	for i, p := range table2Patterns {
		specs[i] = serve.ConfigSpec{Backend: "TCLe", Pattern: p}
	}
	var err error
	if w.cfgs, err = buildConfigs(specs); err != nil {
		return nil, err
	}
	d, err := w.pass(ctx, spanRef{})
	w.want = d
	w.sched, w.plane = sched.CacheStats{}, sim.PlaneCacheStats{}
	return d, err
}

func (w *designCold) op(ctx context.Context, _ opID, sp spanRef) opResult {
	d, err := w.pass(ctx, sp)
	if err != nil {
		return opResult{err: err}
	}
	if diff := d.diff(w.want); diff != "" {
		return opResult{err: fmt.Errorf("pass output differs from the first pass: %s", diff)}
	}
	return opResult{}
}

func (w *designCold) pass(ctx context.Context, sp spanRef) (*digest, error) {
	models, acts, err := buildModels(sp, w.prof, w.seed)
	if err != nil {
		return nil, err
	}
	cfgs, lwss, cells, err := lowerCells(sp, models, acts, w.cfgs)
	if err != nil {
		return nil, err
	}
	opts := sim.Options{Parallelism: enginePar, Cache: sched.NewCache(0), PlaneCache: sim.NewPlaneCache(0)}
	// The traced pass schedules ahead of the engine call, so the engine span
	// that follows holds simulation alone.
	if sp.on() {
		s := sp.child("sched.schedule")
		preschedule(opts.Cache, cfgs, lwss)
		s.end()
	}
	e := sp.counted("sim.engine")
	res, err := sim.SimulateLoweredSweepContext(ctx, cfgs, lwss, opts)
	e.end()
	if err != nil {
		return nil, err
	}
	if sp.on() {
		if err := replayLayers(ctx, sp, cfgs, lwss, opts, res); err != nil {
			return nil, err
		}
	}
	eo := experiments.Options{ActSeed: w.seed, Trials: w.prof.trials, Parallelism: enginePar}
	var tables []string
	for _, id := range []string{"fig11a", "fig11b"} {
		f := sp.counted("experiments." + id)
		t, err := experiments.Registry[id](eo)
		f.end()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t.Render())
	}
	st, pst := opts.Cache.Stats(), opts.PlaneCache.Stats()
	w.sched.Hits += st.Hits
	w.sched.Misses += st.Misses
	w.sched.Evictions += st.Evictions
	w.plane.Hits += pst.Hits
	w.plane.Misses += pst.Misses
	w.plane.Evictions += pst.Evictions
	w.plane.Bytes = pst.Bytes
	return sweepDigest(cells, res, tables...), nil
}

func (w *designCold) counters() counters { return counters{sched: w.sched, plane: w.plane} }

func (w *designCold) finish(context.Context) []error { return nil }
func (w *designCold) close()                         {}

// sweepDigest is the digest of a sweep's results, cell k named cells[k].
func sweepDigest(cells []string, res [][]sim.LayerResult, tables ...string) *digest {
	g := newDigester()
	for k, layers := range res {
		for _, l := range layers {
			g.layer(cells[k], l.Name, l.Cycles, l.DenseCycles)
		}
	}
	return g.digest(tables...)
}

// buildModels builds the profile's models and their activations.
func buildModels(sp spanRef, prof profile, seed int64) ([]*nn.Model, [][]*tensor.T, error) {
	zoo := prof.zoo()
	models := make([]*nn.Model, len(prof.models))
	acts := make([][]*tensor.T, len(prof.models))
	for i, name := range prof.models {
		b := sp.child("nn.build")
		m, err := nn.BuildModel(name, zoo)
		b.end()
		if err != nil {
			return nil, nil, err
		}
		a := sp.child("nn.acts")
		models[i], acts[i] = m, m.GenerateActs(seed)
		a.end()
	}
	return models, acts, nil
}

// lowerCells lowers each model once per lane count and returns the sweep's
// cells, model by model: each cell's config, its lowered layers and its
// name.
func lowerCells(sp spanRef, models []*nn.Model, acts [][]*tensor.T, cfgs []arch.Config) (
	cellCfgs []arch.Config, cellLws [][]*nn.Lowered, names []string, err error) {
	for i, m := range models {
		byLanes := map[int][]*nn.Lowered{}
		for _, cfg := range cfgs {
			lws, ok := byLanes[cfg.Lanes]
			if !ok {
				l := sp.child("nn.lower")
				lws, err = m.Lowered(cfg.Lanes, acts[i])
				l.end()
				if err != nil {
					return nil, nil, nil, err
				}
				byLanes[cfg.Lanes] = lws
			}
			cellCfgs, cellLws = append(cellCfgs, cfg), append(cellLws, lws)
			names = append(names, m.Name+"|"+cfg.Name)
		}
	}
	return cellCfgs, cellLws, names, nil
}

// buildConfigs resolves config specs the way the serving tier does.
func buildConfigs(specs []serve.ConfigSpec) ([]arch.Config, error) {
	cfgs := make([]arch.Config, len(specs))
	for i, s := range specs {
		var err error
		if cfgs[i], err = s.Build(); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// preschedule looks every filter group of every cell up in the schedule
// cache, grouped by FiltersPerTile exactly as the engine groups them and on
// as many goroutines as the engine has workers, so a following engine call
// finds every schedule cached.
func preschedule(cache *sched.Cache, cfgs []arch.Config, lwss [][]*nn.Lowered) {
	type group struct {
		cell int
		lw   *nn.Lowered
		f0   int
	}
	var groups []group
	for k, cfg := range cfgs {
		if !cfg.HasFrontEnd() {
			continue
		}
		for _, lw := range lwss[k] {
			for f0 := 0; f0 < lw.Filters; f0 += cfg.FiltersPerTile {
				groups = append(groups, group{k, lw, f0})
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range enginePar {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(groups); i = int(next.Add(1)) - 1 {
				g, cfg := groups[i], &cfgs[groups[i].cell]
				filters := make([]sched.Filter, min(cfg.FiltersPerTile, g.lw.Filters-g.f0))
				for j := range filters {
					filters[j] = sched.NewFilter(g.lw.Lanes, g.lw.Steps, g.lw.FilterRow(g.f0+j), g.lw.PadMask())
				}
				cache.ScheduleGroup(filters, cfg.Pattern, cfg.Scheduler)
			}
		}()
	}
	wg.Wait()
}

// layerKind names a lowered layer's kind for the per-kind engine metrics.
func layerKind(lw *nn.Lowered) string {
	switch {
	case lw.Kind == nn.Depthwise:
		return "dwconv"
	case lw.Kind == nn.FC:
		return "fc"
	case lw.Layer().Groups > 1:
		return "gconv"
	default:
		return "conv"
	}
}

// replayLayers runs every (config, layer) cell again as its own
// SimulateLayerContext call, timed per layer kind, and checks each against
// the sweep's result for that cell.
func replayLayers(ctx context.Context, sp spanRef, cfgs []arch.Config, lwss [][]*nn.Lowered, opts sim.Options, want [][]sim.LayerResult) error {
	r := sp.replay("sim.layers")
	defer r.end()
	for k, cfg := range cfgs {
		for i, lw := range lwss[k] {
			kind := layerKind(lw)
			s := r.child("sim." + kind)
			lr, err := sim.SimulateLayerContext(ctx, cfg, lw, opts)
			s.end()
			if err != nil {
				return err
			}
			if lr.Cycles != want[k][i].Cycles {
				return fmt.Errorf("layer %s under %s: %d cycles alone, %d in the sweep", lw.Name, cfg.Name, lr.Cycles, want[k][i].Cycles)
			}
			r.count("macs."+kind, lr.MACs)
		}
	}
	return nil
}
