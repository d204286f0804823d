package experiments

import (
	"bittactical/internal/fixed"
	"bittactical/internal/potential"
)

// Table1 reproduces Table 1: the ideal performance-improvement potential of
// each sparsity source over a value-agnostic dense execution, at 16 bits.
func Table1(o Options) (*Table, error) {
	return table1At(o, fixed.W16, "table1",
		"Performance improvement potential (16b fixed-point)")
}

// Table1Q8 is the Section 6.5 companion: the same potentials at 8 bits.
func Table1Q8(o Options) (*Table, error) {
	return table1At(o, fixed.W8, "table1q8",
		"Performance improvement potential (8b range-oblivious quantization)")
}

func table1At(o Options, w fixed.Width, id, title string) (*Table, error) {
	wls, err := buildWorkloads(o, w)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Header: append([]string{"Model"}, potential.Keys...)}
	per := make([]map[string]float64, len(wls))
	errs := make([]error, len(wls))
	parallelDo(o, len(wls), func(i int) {
		tal, err := potential.AnalyzeModel(wls[i].Model, wls[i].Acts)
		if err != nil {
			errs[i] = err
			return
		}
		per[i] = tal.Potentials()
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	gm := map[string][]float64{}
	for i, wl := range wls {
		row := []string{wl.Model.Name}
		for _, k := range potential.Keys {
			row = append(row, f1(per[i][k]))
			gm[k] = append(gm[k], per[i][k])
		}
		t.Rows = append(t.Rows, row)
	}
	grow := []string{"Geomean"}
	for _, k := range potential.Keys {
		grow = append(grow, f1(geomean(gm[k])))
	}
	t.Rows = append(t.Rows, grow)
	t.Notes = append(t.Notes,
		"A/W/W+A are value-level; Ap uses per-group-of-16 dynamic precision "+
			"(Dynamic Stripes detection), Ae per-value Booth terms (Pragmatic).")
	return t, nil
}
