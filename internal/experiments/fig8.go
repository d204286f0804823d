package experiments

import (
	"context"
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/energy"
	"bittactical/internal/memory"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// fig8aConfigs are Figure 8a's front-end sweep, in the paper's order.
var fig8aConfigs = []string{
	"L4<1,2>", "L8<1,6>", "L8<2,5>", "L8<3,4>", "L8<4,3>", "L8<5,2>",
	"L8<6,1>", "T8<2,5>", "X<inf,15>",
}

// Fig8a reproduces Figure 8a: speedup from front-end weight skipping alone
// (bit-parallel back-end), reporting lookahead-only and full (lookahead +
// lookaside) speedups per configuration.
func Fig8a(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8a",
		Title:  "Speedup with front-end weight skipping only (bottom: lookahead only, top: +lookaside)",
		Header: []string{"Config"},
	}
	for _, wl := range wls {
		t.Header = append(t.Header, wl.Model.Name)
	}
	t.Header = append(t.Header, "Geomean")

	// Every (config, mode, model) cell joins one batched engine invocation:
	// parallelism flows through the engine's own pool instead of one engine
	// entry per cell, which is what lets the pooled sweep state and worker
	// arenas reach their zero-alloc steady state across the whole figure.
	type cell struct{ cfgIdx, wlIdx, mode int } // mode 0 = lookahead-only, 1 = full
	speed := make([][2][]float64, len(fig8aConfigs))
	for i := range speed {
		speed[i][0] = make([]float64, len(wls))
		speed[i][1] = make([]float64, len(wls))
	}
	var (
		cells []cell
		cfgs  []arch.Config
		lwss  [][]*nn.Lowered
	)
	for ci, name := range fig8aConfigs {
		p, err := sched.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mode := range []int{0, 1} {
			pm := p
			if mode == 0 {
				if p.Infinite {
					for wi := range wls {
						speed[ci][0][wi] = 1 // X has no lookahead-only form
					}
					continue
				}
				pm = p.LookaheadOnly()
			}
			cfg := arch.FrontEndOnly(pm)
			for wi := range wls {
				cells = append(cells, cell{ci, wi, mode})
				cfgs = append(cfgs, cfg)
				lwss = append(lwss, wls[wi].Low)
			}
		}
	}
	layerss, err := sim.SimulateLoweredSweepContext(context.Background(), cfgs, lwss, o.simOpts())
	if err != nil {
		return nil, err
	}
	for k, c := range cells {
		speed[c.cfgIdx][c.mode][c.wlIdx] = speedupOf(layerss[k])
	}
	for ci, name := range fig8aConfigs {
		for _, mode := range []int{0, 1} {
			label := name + " (la-only)"
			if mode == 1 {
				label = name
			}
			if name == "X<inf,15>" && mode == 0 {
				continue
			}
			row := []string{label}
			for wi := range wls {
				row = append(row, f2(speed[ci][mode][wi]))
			}
			row = append(row, f2(geomean(speed[ci][mode])))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// fig8bConfigs returns Figure 8b's six accelerator configurations: both
// back-ends over <1,6>, <2,5> and <4,3>; the <2,5> designs use the Trident
// interconnect (Section 6.2), the others the L shape.
func fig8bConfigs() []arch.Config {
	pats := []sched.Pattern{sched.L(1, 6), sched.T(2, 5), sched.L(4, 3)}
	var out []arch.Config
	for _, be := range []arch.BackEnd{arch.TCLp, arch.TCLe} {
		for _, p := range pats {
			out = append(out, arch.NewTCL(p, be))
		}
	}
	return out
}

// Fig8b reproduces Figure 8b: full TCLp and TCLe speedups over DaDianNao++
// for all layers.
func Fig8b(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	return backEndSweep(o, wls, "fig8b", "Speedup with activation back-ends (all layers)")
}

// backEndSweep runs fig8bConfigs over the workloads (shared with Fig13).
func backEndSweep(o Options, wls []*workload, id, title string) (*Table, error) {
	return configSweep(o, wls, fig8bConfigs(), id, title)
}

// Fig8c reproduces Figure 8c: per-image energy breakdown (logic, on-chip
// buffers, off-chip transfers) and energy efficiency relative to
// DaDianNao++, over convolutional layers (Section 6.2 limits attention to
// conv layers to enable the SCNN comparison).
func Fig8c(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	cfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.NewTCL(sched.T(2, 5), arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
	}
	tech, _ := memory.TechByName("LPDDR4-3200")
	k := energy.Defaults65nm()
	t := &Table{
		ID:     "fig8c",
		Title:  "Energy breakdown (uJ/image, conv layers) and efficiency vs DaDianNao++",
		Header: []string{"Model", "Config", "Logic", "On-chip", "Off-chip", "Total", "Efficiency"},
	}
	type cell struct{ b energy.Breakdown }
	grid := make([][]cell, len(wls))
	for i := range grid {
		grid[i] = make([]cell, len(cfgs))
	}
	errs := make([]error, len(wls)*len(cfgs))
	parallelDo(o, len(wls)*len(cfgs), func(i int) {
		wi, ci := i/len(cfgs), i%len(cfgs)
		wl, cfg := wls[wi], cfgs[ci]
		var sum energy.Breakdown
		for li, lw := range wl.Low {
			if wl.Model.Layers[li].Kind == nn.FC {
				continue
			}
			r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, o.simOpts())
			if err != nil {
				errs[i] = err
				return
			}
			tr := memory.LayerTraffic(cfg, lw)
			sum.Add(energy.Price(cfg, r.Activity, tr, tech, k))
		}
		grid[wi][ci] = cell{b: sum}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	uj := func(pj float64) string { return fmt.Sprintf("%.1f", pj*1e-6) }
	var effP, effE []float64
	for wi, wl := range wls {
		base := grid[wi][0].b.TotalPJ()
		for ci, cfg := range cfgs {
			b := grid[wi][ci].b
			eff := base / b.TotalPJ()
			t.Rows = append(t.Rows, []string{
				wl.Model.Name, cfg.Name, uj(b.LogicPJ), uj(b.OnChipPJ),
				uj(b.OffChipPJ), uj(b.TotalPJ()), f2(eff),
			})
			switch ci {
			case 1:
				effP = append(effP, eff)
			case 2:
				effE = append(effE, eff)
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average efficiency: TCLp %.2fx, TCLe %.2fx (paper: 2.22x / 2.13x)",
			geomean(effP), geomean(effE)))
	return t, nil
}

// simulateAll simulates every layer of a workload under cfg on o's engine
// options; layerFilter (when non-nil) selects layers.
func simulateAll(o Options, cfg arch.Config, wl *workload, layerFilter func(*nn.Layer) bool) (*sim.Result, error) {
	res := &sim.Result{Config: cfg.Name}
	for li, lw := range wl.Low {
		if layerFilter != nil && !layerFilter(wl.Model.Layers[li]) {
			continue
		}
		r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, o.simOpts())
		if err != nil {
			return nil, err
		}
		res.Layers = append(res.Layers, r)
	}
	return res, nil
}
