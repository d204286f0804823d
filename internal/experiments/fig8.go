package experiments

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/energy"
	"bittactical/internal/memory"
	"bittactical/internal/sched"
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
	// One row per (pattern, mode): the lookahead-only form first (X has
	// none), then the full pattern.
	var (
		labels []string
		cfgs   []arch.Config
	)
	for _, name := range fig8aConfigs {
		p, err := sched.ByName(name)
		if err != nil {
			return nil, err
		}
		if !p.Infinite {
			labels = append(labels, name+" (la-only)")
			cfgs = append(cfgs, arch.FrontEndOnly(p.LookaheadOnly()))
		}
		labels = append(labels, name)
		cfgs = append(cfgs, arch.FrontEndOnly(p))
	}
	cells, err := simulateCells(o, cfgs, wls, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8a",
		Title:  "Speedup with front-end weight skipping only (bottom: lookahead only, top: +lookaside)",
		Header: modelHeader("Config", wls),
	}
	for ci, label := range labels {
		t.Rows = append(t.Rows, speedupRow(label, speedups(cells[ci]), f2))
	}
	return t, nil
}

// fig8bConfigs returns Figure 8b's six accelerator configurations: both
// back-ends over <1,6>, <2,5> and <4,3>; the <2,5> designs use the Trident
// interconnect (Section 6.2), the others the L shape.
func fig8bConfigs() []arch.Config {
	pats := []sched.Pattern{sched.L(1, 6), sched.T(2, 5), sched.L(4, 3)}
	var out []arch.Config
	for _, tcl := range []func(sched.Pattern) arch.Config{arch.TCLp, arch.TCLe} {
		for _, p := range pats {
			out = append(out, tcl(p))
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
	return configSweep(o, wls, fig8bConfigs(), "fig8b", "Speedup with activation back-ends (all layers)")
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
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
	}
	tech, _ := memory.TechByName("LPDDR4-3200")
	k := energy.Defaults65nm()
	t := &Table{
		ID:     "fig8c",
		Title:  "Energy breakdown (uJ/image, conv layers) and efficiency vs DaDianNao++",
		Header: []string{"Model", "Config", "Logic", "On-chip", "Off-chip", "Total", "Efficiency"},
	}
	cells, err := simulateCells(o, cfgs, wls, convOnly)
	if err != nil {
		return nil, err
	}
	// Pricing the traffic is the work outside the engine: one job per cell.
	grid := make([][]energy.Breakdown, len(cfgs))
	for ci := range grid {
		grid[ci] = make([]energy.Breakdown, len(wls))
	}
	parallelDo(o, len(cfgs)*len(wls), func(i int) {
		ci, wi := i/len(wls), i%len(wls)
		cfg := cfgs[ci]
		for li, lw := range wls[wi].layers(convOnly) {
			grid[ci][wi].Add(energy.Price(cfg, cells[ci][wi][li].Activity, memory.LayerTraffic(cfg, lw), tech, k))
		}
	})
	uj := func(pj float64) string { return fmt.Sprintf("%.1f", pj*1e-6) }
	var effP, effE []float64
	for wi, wl := range wls {
		base := grid[0][wi].TotalPJ()
		for ci, cfg := range cfgs {
			b := grid[ci][wi]
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
