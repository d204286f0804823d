package experiments

import (
	"context"
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
	type rowData struct {
		model, layer string
		fe           sched.Stats
		be           sim.Breakdown
	}
	var mu []([]rowData) = make([][]rowData, len(wls))
	errs := make([]error, len(wls))
	parallelDo(o, len(wls), func(wi int) {
		wl := wls[wi]
		picks := representativeLayers(len(wl.Low))
		var total sim.LayerResult
		var rows []rowData
		for li, lw := range wl.Low {
			r, err := sim.SimulateLayerContext(context.Background(), cfg, lw, o.simOpts())
			if err != nil {
				errs[wi] = err
				return
			}
			total.BackEnd.Add(r.BackEnd)
			total.FrontEnd.Columns += r.FrontEnd.Columns
			for k := range total.FrontEnd.Slots {
				total.FrontEnd.Slots[k] += r.FrontEnd.Slots[k]
			}
			if picks[li] {
				rows = append(rows, rowData{wl.Model.Name, lw.Name, r.FrontEnd, r.BackEnd})
			}
		}
		rows = append(rows, rowData{wl.Model.Name, "Total", total.FrontEnd, total.BackEnd})
		mu[wi] = rows
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, rows := range mu {
		for _, r := range rows {
			t.Rows = append(t.Rows, formatFig9Row(r.model, r.layer, r.fe, r.be))
		}
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
