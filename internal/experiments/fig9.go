package experiments

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// Fig9 reproduces Figure 9: execution-time breakdowns for TCLe T8<2,5>.
// Parts (a)–(g) census the front-end schedule slots (unpromoted, lookahead,
// lookaside, zero reads, padding) per network; parts (h)–(n) census
// back-end lane time (useful, column sync, tile sync, A-zero, W-zero,
// both-zero). Rows cover a few representative layers plus the total, as in
// the paper.
func Fig9(o Options) (*Table, error) {
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	cfg := arch.TCLe(sched.T(2, 5))
	t := &Table{
		ID:    "fig9",
		Title: "Execution time breakdown, TCLe T8<2,5>",
		Header: []string{
			"Model", "Layer",
			"unprom", "lookahead", "lookaside", "zero", "pad", // front-end (a-g)
			"useful", "colsync", "tilesync", "Azero", "Wzero", "bothzero", // back-end (h-n)
		},
	}
	cells, err := simulateCells(o, []arch.Config{cfg}, wls, nil)
	if err != nil {
		return nil, err
	}
	for wi, wl := range wls {
		layers := cells[0][wi]
		picks := representativeLayers(len(layers))
		for li, r := range layers {
			if picks[li] {
				t.Rows = append(t.Rows, formatFig9Row(wl.Model.Name, r.Name, r.FrontEnd, r.BackEnd))
			}
		}
		total := sim.Result{Layers: layers}
		t.Rows = append(t.Rows, formatFig9Row(wl.Model.Name, "Total", total.FrontEnd(), total.BackEnd()))
	}
	t.Notes = append(t.Notes, "front-end columns are fractions of schedule slots; back-end columns are fractions of lane time")
	return t, nil
}

// representativeLayers picks ~5 evenly-spaced layer indices.
func representativeLayers(n int) map[int]bool {
	picks := map[int]bool{}
	if n <= 5 {
		for i := 0; i < n; i++ {
			picks[i] = true
		}
		return picks
	}
	for i := 0; i < 5; i++ {
		picks[i*(n-1)/4] = true
	}
	return picks
}

func formatFig9Row(model, layer string, fe sched.Stats, be sim.Breakdown) []string {
	var feTotal int64
	for _, v := range fe.Slots {
		feTotal += v
	}
	frac := func(v, total int64) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(v)/float64(total))
	}
	beTotal := be.Total()
	return []string{
		model, layer,
		frac(fe.Slots[sched.SlotUnpromoted], feTotal),
		frac(fe.Slots[sched.SlotLookahead], feTotal),
		frac(fe.Slots[sched.SlotLookaside], feTotal),
		frac(fe.Slots[sched.SlotZero], feTotal),
		frac(fe.Slots[sched.SlotPad], feTotal),
		frac(be.Useful, beTotal),
		frac(be.ColumnSync, beTotal),
		frac(be.TileSync, beTotal),
		frac(be.AZero, beTotal),
		frac(be.WZero, beTotal),
		frac(be.BothZero, beTotal),
	}
}
