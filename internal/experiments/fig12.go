package experiments

import (
	"bittactical/internal/accel"
	"bittactical/internal/arch"
	"bittactical/internal/fixed"
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
	// The simulated designs, and the label rows they fill; SCNN and SCNNp
	// (rows 1 and 2) are analytic.
	simRows := []int{0, 3, 4, 5, 6}
	simCfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.TCLp(sched.Pattern{}), // Dynamic Stripes
		arch.TCLe(sched.Pattern{}), // Pragmatic
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
	}
	cells, err := simulateCells(o, simCfgs, wls, convOnly)
	if err != nil {
		return nil, err
	}
	speed := make([][]float64, len(labels))
	for ci, row := range simRows {
		speed[row] = speedups(cells[ci])
	}
	speed[1], speed[2] = make([]float64, len(wls)), make([]float64, len(wls))
	parallelDo(o, len(wls), func(wi int) {
		wl := wls[wi]
		var scnnC, scnnD, scnnpC int64
		for _, lw := range wl.layers(convOnly) {
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
	t := &Table{ID: "fig12", Title: "Performance vs other accelerators (conv layers)", Header: modelHeader("Accelerator", wls)}
	for i, label := range labels {
		t.Rows = append(t.Rows, speedupRow(label, speed[i], f1))
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
	speed := make([][]float64, len(labels))
	for i := range speed {
		speed[i] = make([]float64, len(wls))
	}
	parallelDo(o, len(wls), func(wi int) {
		var cxC, cxD, cvC int64
		for _, lw := range wls[wi].layers(convOnly) {
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
	t := &Table{ID: "baselines-ext", Title: "Related-work accelerators (conv layers)", Header: modelHeader("Accelerator", wls)}
	for i, label := range labels {
		t.Rows = append(t.Rows, speedupRow(label, speed[i], f1))
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
	return configSweep(o, wls, fig8bConfigs(), "fig13", "Speedup with 8b quantization (all layers)")
}
