package experiments

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/energy"
	"bittactical/internal/sched"
)

// Table2 reproduces Table 2: the evaluated configurations.
func Table2() *Table {
	base := arch.DaDianNaoPP()
	t := &Table{
		ID:     "table2",
		Title:  "Baseline DaDianNao++ and TCL configurations",
		Header: []string{"Parameter", "Value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("Tiles", fmt.Sprintf("%d", base.Tiles))
	add("Filters/Tile", fmt.Sprintf("%d", base.FiltersPerTile))
	add("Weights/Filter", fmt.Sprintf("%d", base.Lanes))
	add("AS/Tile", "32KB x 32 banks")
	add("WS/Tile", "2KB x 32 banks")
	add("Precision", base.Width.String())
	add("PSum SPad/PE", "128B DaDianNao++ / 8B TCL")
	add("Act. Buffer/Tile", "1KB x (h+1)")
	add("Frequency", fmt.Sprintf("%.0f GHz", base.FrequencyGHz))
	add("Tech Node", "65nm")
	add("Lookahead", "0-4")
	add("Lookaside", "0-6")
	add("DaDianNao++ Peak Compute BW", fmt.Sprintf("%.0f TOPS", base.PeakTOPS()))
	add("DaDianNao++ Area", fmt.Sprintf("%.2f mm2", energy.AreaOf(base).Total()))
	return t
}

// Table3 reproduces Table 3: area in mm², itemized for the L8<1,6>
// configurations, with normalized totals for the other patterns.
func Table3() *Table {
	t := &Table{
		ID:     "table3",
		Title:  "TCLe and TCLp area (mm2, 65nm)",
		Header: []string{"Component", "TCLe L8<1,6>", "TCLp L8<1,6>", "DaDN++"},
	}
	p16 := sched.L(1, 6)
	e := energy.AreaOf(arch.TCLe(p16))
	p := energy.AreaOf(arch.TCLp(p16))
	d := energy.AreaOf(arch.DaDianNaoPP())
	row := func(name string, a, b, c float64) {
		cell := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", v)
		}
		t.Rows = append(t.Rows, []string{name, cell(a), cell(b), cell(c)})
	}
	row("Compute Core", e.ComputeCore, p.ComputeCore, d.ComputeCore)
	row("Weight Memory", e.WeightMemory, p.WeightMemory, d.WeightMemory)
	row("Activation Select Unit", e.ActSelectUnit, p.ActSelectUnit, d.ActSelectUnit)
	row("Act. Input Buffer", e.ActInputBuffer, p.ActInputBuffer, d.ActInputBuffer)
	row("Act. Output Buffer", e.ActOutputBuf, p.ActOutputBuf, d.ActOutputBuf)
	row("Activation Memory", e.ActMemory, p.ActMemory, d.ActMemory)
	row("Dispatcher", e.Dispatcher, p.Dispatcher, d.Dispatcher)
	row("Offset Generator", e.OffsetGen, p.OffsetGen, d.OffsetGen)
	row("Total", e.Total(), p.Total(), d.Total())
	for _, pat := range []sched.Pattern{sched.L(1, 6), sched.L(2, 5), sched.L(4, 3), sched.T(2, 5)} {
		t.Rows = append(t.Rows, []string{
			"Normalized Total " + pat.Name,
			fmt.Sprintf("%.2fx", energy.NormalizedArea(arch.TCLe(pat))),
			fmt.Sprintf("%.2fx", energy.NormalizedArea(arch.TCLp(pat))),
			"1.00x",
		})
	}
	return t
}
