package sim

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// ExecuteGolden runs a layer value-exactly through the modeled datapath —
// front-end weight/activation pairing plus the selected back-end's
// arithmetic — and checks every output against the lowering's reference dot
// product. It returns the first mismatch as an error.
//
// This is the semantic-preservation invariant of DESIGN.md §5: a schedule
// may reorder work arbitrarily within its constraints, but each filter's
// psum must come out bit-exact.
func ExecuteGolden(cfg arch.Config, lw *nn.Lowered) error {
	pad := lw.PadMask()
	rows := cfg.FiltersPerTile
	for f0 := 0; f0 < lw.Filters; f0 += rows {
		f1 := f0 + rows
		if f1 > lw.Filters {
			f1 = lw.Filters
		}
		filters := make([]sched.Filter, f1-f0)
		for i := range filters {
			filters[i] = sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(f0+i), pad)
		}
		var schedules []*sched.Schedule
		if cfg.HasFrontEnd() {
			schedules = sched.ScheduleGroup(filters, cfg.Pattern, cfg.Scheduler)
			for i, s := range schedules {
				if err := sched.Verify(filters[i], cfg.Pattern, s); err != nil {
					return fmt.Errorf("sim: filter %d: %w", f0+i, err)
				}
			}
		} else {
			schedules = denseSchedules(&groupScratch{}, filters)
		}
		for i, s := range schedules {
			f := f0 + i
			for win := 0; win < lw.WindowCount; win++ {
				got := executePsum(cfg, lw, s, f, win)
				want := lw.ReferenceOutput(f, win)
				if got != want {
					return fmt.Errorf("sim: %s: filter %d window %d: datapath %d != reference %d",
						lw.Name, f, win, got, want)
				}
			}
		}
	}
	return nil
}

// executePsum accumulates one output through the modeled datapath: the WSU
// selects each entry's activation at its source, the dense (step, lane) its
// mux input names; the back-end forms the product through its own
// arithmetic — bit-parallel multiply, bit-serial AND-adds (TCLp), Booth
// shift-adds (TCLe), or whatever the registered Backend's MAC models.
func executePsum(cfg arch.Config, lw *nn.Lowered, s *sched.Schedule, f, win int) int64 {
	var psum int64
	for _, col := range s.Columns {
		for _, e := range col.Entries {
			if e.Weight == 0 {
				continue
			}
			a := lw.Act(f, win, int(e.Src)/s.Lanes, int(e.Src)%s.Lanes)
			psum += cfg.Backend.MAC(e.Weight, a, cfg.Width)
		}
	}
	return psum
}
