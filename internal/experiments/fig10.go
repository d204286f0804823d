package experiments

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/memory"
	"bittactical/internal/sched"
)

// Fig10 reproduces Figure 10: TCLp and TCLe (T<2,5>) speedup over
// DaDianNao++ under each off-chip memory technology, annotated with the
// peak frames/s and effective TOPS at the least capable technology that
// reaches peak performance (the paper's bar labels).
func Fig10(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	cfgs := []arch.Config{
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
	}
	t := &Table{
		ID:     "fig10",
		Title:  "Speedup with off-chip memory technologies (T<2,5>)",
		Header: []string{"Model", "Config"},
	}
	for _, tech := range memory.Techs {
		t.Header = append(t.Header, tech.Name)
	}
	t.Header = append(t.Header, "peak fps", "eff TOPS")

	cells, err := simulateCells(o, cfgs, wls, nil)
	if err != nil {
		return nil, err
	}
	type res struct {
		speed   []float64
		fps     float64
		effTOPS float64
	}
	grid := make([][]res, len(cfgs))
	for ci := range grid {
		grid[ci] = make([]res, len(wls))
	}
	// Pricing the traffic is the work outside the engine: one job per cell.
	base := arch.DaDianNaoPP()
	parallelDo(o, len(cfgs)*len(wls), func(i int) {
		ci, wi := i/len(wls), i%len(wls)
		cfg, layers := cfgs[ci], cells[ci][wi]
		// Per-layer compute cycles and traffic are technology-independent.
		traffic := make([]memory.Traffic, len(layers))
		baseTraffic := make([]memory.Traffic, len(layers))
		for li, lw := range wls[wi].Low {
			traffic[li] = memory.LayerTraffic(cfg, lw)
			baseTraffic[li] = memory.LayerTraffic(base, lw)
		}
		out := res{speed: make([]float64, len(memory.Techs))}
		for ti, tech := range memory.Techs {
			var tcl, dense, macs int64
			for li, r := range layers {
				tcl += memory.BoundedCycles(r.Cycles, traffic[li], tech, cfg.FrequencyGHz)
				dense += memory.BoundedCycles(r.DenseCycles, baseTraffic[li], tech, cfg.FrequencyGHz)
				macs += r.MACs
			}
			if tcl > 0 {
				out.speed[ti] = float64(dense) / float64(tcl)
			}
			// Peak fps/TOPS at the strongest (infinite) configuration.
			if tech.Infinite() && tcl > 0 {
				out.fps = cfg.FrequencyGHz * 1e9 / float64(tcl)
				out.effTOPS = 2 * float64(macs) * out.fps / 1e12
			}
		}
		grid[ci][wi] = out
	})
	for wi, wl := range wls {
		for ci, cfg := range cfgs {
			r := grid[ci][wi]
			row := []string{wl.Model.Name, cfg.Backend.Name()}
			for _, s := range r.speed {
				row = append(row, f2(s))
			}
			row = append(row, fmt.Sprintf("%.0f", r.fps), fmt.Sprintf("%.2f", r.effTOPS))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes, "rightmost bandwidth column is the infinite off-chip bandwidth reference used elsewhere")
	return t, nil
}
