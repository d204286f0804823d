package experiments

import (
	"bittactical/internal/accel"
	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// Fig12 reproduces Figure 12: performance versus the other accelerators —
// DaDianNao++ (the 1.0 reference), SCNN, Dynamic Stripes, Pragmatic, and
// TCLp/TCLe at T<2,5> — over convolutional layers (Section 6.4 limits the
// comparison to conv layers because SCNN's FC peak bandwidth is 4× lower).
// SCNNp appears as the paper's Section 6.4 thought experiment.
func Fig12(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	labels := []string{"DaDianNao++", "SCNN", "SCNNp", "DStripes", "Pragmatic", "TCLp<2,5>", "TCLe<2,5>"}
	t := &Table{ID: "fig12", Title: "Performance vs other accelerators (conv layers)", Header: []string{"Accelerator"}}
	for _, wl := range wls {
		t.Header = append(t.Header, wl.Model.Name)
	}
	t.Header = append(t.Header, "Geomean")

	speed := make([][]float64, len(labels))
	for i := range speed {
		speed[i] = make([]float64, len(wls))
	}
	errs := make([]error, len(wls))
	parallelDo(o, len(wls), func(wi int) {
		wl := wls[wi]
		convOnly := func(l *nn.Layer) bool { return l.Kind != nn.FC }
		// sim-backed designs.
		simCfgs := map[int]arch.Config{
			0: arch.DaDianNaoPP(),
			3: arch.NewTCL(sched.Pattern{}, arch.TCLp), // Dynamic Stripes
			4: arch.NewTCL(sched.Pattern{}, arch.TCLe), // Pragmatic
			5: arch.NewTCL(sched.T(2, 5), arch.TCLp),
			6: arch.NewTCL(sched.T(2, 5), arch.TCLe),
		}
		for idx, cfg := range simCfgs {
			res, err := simulateAll(o, cfg, wl, convOnly)
			if err != nil {
				errs[wi] = err
				return
			}
			speed[idx][wi] = res.Speedup()
		}
		// Analytic baselines.
		var scnnC, scnnD, scnnpC int64
		for li, lw := range wl.Low {
			if wl.Model.Layers[li].Kind == nn.FC {
				continue
			}
			r := accel.SCNN(lw)
			scnnC += r.Cycles
			scnnD += r.DenseCycles
			scnnpC += accel.SCNNp(lw, wl.Model.Width).Cycles
		}
		if scnnC > 0 {
			speed[1][wi] = float64(scnnD) / float64(scnnC)
		}
		if scnnpC > 0 {
			speed[2][wi] = float64(scnnD) / float64(scnnpC)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, label := range labels {
		row := []string{label}
		for wi := range wls {
			row = append(row, f1(speed[i][wi]))
		}
		row = append(row, f1(geomean(speed[i])))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"DStripes/Pragmatic are the TCL back-ends without the front-end (Section 7's taxonomy)",
		"SCNNp is the Section 6.4 bit-serial SCNN variant with 16x the tiles")
	return t, nil
}

// ExtendedBaselines reports the Section 7 accelerators that do not appear
// in Figure 12's bars — Cambricon-X (W-only) and Cnvlutin (A-only) — as an
// extension table referenced from the related-work discussion.
func ExtendedBaselines(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	labels := []string{"Cambricon-X", "Cnvlutin"}
	t := &Table{ID: "baselines-ext", Title: "Related-work accelerators (conv layers)", Header: []string{"Accelerator"}}
	for _, wl := range wls {
		t.Header = append(t.Header, wl.Model.Name)
	}
	t.Header = append(t.Header, "Geomean")
	speed := make([][]float64, len(labels))
	for i := range speed {
		speed[i] = make([]float64, len(wls))
	}
	parallelDo(o, len(wls), func(wi int) {
		wl := wls[wi]
		var cxC, cxD, cvC int64
		for li, lw := range wl.Low {
			if wl.Model.Layers[li].Kind == nn.FC {
				continue
			}
			r := accel.CambriconX(lw)
			cxC += r.Cycles
			cxD += r.DenseCycles
			cvC += accel.Cnvlutin(lw).Cycles
		}
		if cxC > 0 {
			speed[0][wi] = float64(cxD) / float64(cxC)
		}
		if cvC > 0 {
			speed[1][wi] = float64(cxD) / float64(cvC)
		}
	})
	for i, label := range labels {
		row := []string{label}
		for wi := range wls {
			row = append(row, f1(speed[i][wi]))
		}
		row = append(row, f1(geomean(speed[i])))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 reproduces Figure 13: the Figure 8b sweep with 8-bit range-oblivious
// quantization for all systems.
func Fig13(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, fixed.W8)
	if err != nil {
		return nil, err
	}
	return backEndSweep(o, wls, "fig13", "Speedup with 8b quantization (all layers)")
}
