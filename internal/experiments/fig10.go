package experiments

import (
	"context"
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/memory"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
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
		arch.NewTCL(sched.T(2, 5), arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
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

	type res struct {
		speed   []float64
		fps     float64
		effTOPS float64
	}
	grid := make([][]res, len(wls))
	for i := range grid {
		grid[i] = make([]res, len(cfgs))
	}
	errs := make([]error, len(wls)*len(cfgs))
	parallelDo(o, len(wls)*len(cfgs), func(i int) {
		wi, ci := i/len(cfgs), i%len(cfgs)
		wl, cfg := wls[wi], cfgs[ci]
		// Per-layer compute cycles and traffic are technology-independent.
		type layerRun struct {
			compute, baseCompute int64
			traffic              memory.Traffic
			baseTraffic          memory.Traffic
			macs                 int64
		}
		base := arch.DaDianNaoPP()
		runs := make([]layerRun, len(wl.Low))
		for li, lw := range wl.Low {
			r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, o.simOpts())
			if err != nil {
				errs[i] = err
				return
			}
			runs[li] = layerRun{
				compute:     r.Cycles,
				baseCompute: r.DenseCycles,
				traffic:     memory.LayerTraffic(cfg, lw),
				baseTraffic: memory.LayerTraffic(base, lw),
				macs:        r.MACs,
			}
		}
		out := res{speed: make([]float64, len(memory.Techs))}
		for ti, tech := range memory.Techs {
			var tcl, dense, macs int64
			for _, lr := range runs {
				tcl += memory.BoundedCycles(lr.compute, lr.traffic, tech, cfg.FrequencyGHz)
				dense += memory.BoundedCycles(lr.baseCompute, lr.baseTraffic, tech, cfg.FrequencyGHz)
				macs += lr.macs
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
		grid[wi][ci] = out
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for wi, wl := range wls {
		for ci, cfg := range cfgs {
			r := grid[wi][ci]
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
