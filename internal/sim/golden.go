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
// product. It walks the schedules the engine runs (LayerSchedules),
// verifies each front-end schedule, and returns the first violation or
// mismatch as an error.
//
// This is the semantic-preservation invariant of DESIGN.md §5: a schedule
// may reorder work arbitrarily within its constraints, but each filter's
// psum must come out bit-exact.
func ExecuteGolden(cfg arch.Config, lw *nn.Lowered) error {
	var terms []int64
	return LayerSchedules(cfg, lw, func(f0 int, filters []sched.Filter, schedules []*sched.Schedule) error {
		for i, s := range schedules {
			f := f0 + i
			if cfg.HasFrontEnd() {
				if err := sched.Verify(filters[i], cfg.Pattern, s); err != nil {
					return fmt.Errorf("sim: filter %d: %w", f, err)
				}
			}
			for win := 0; win < lw.WindowCount; win++ {
				got := executePsum(cfg, lw, s, f, win, &terms)
				want := lw.ReferenceOutput(f, win)
				if got != want {
					return fmt.Errorf("sim: %s: filter %d window %d: datapath %d != reference %d",
						lw.Name, f, win, got, want)
				}
			}
		}
		return nil
	})
}

// executePsum accumulates one output through the modeled datapath: the WSU
// selects each entry's activation at its source, the dense (step, lane) its
// mux input names, and the lane adds weight × factor for every factor of
// the activation's term stream — one full multiply (bit-parallel), the
// bit-serial AND-adds (TCLp), the Booth shift-adds (TCLe), or whatever the
// registered Backend streams. terms is the streams' reused buffer.
func executePsum(cfg arch.Config, lw *nn.Lowered, s *sched.Schedule, f, win int, terms *[]int64) int64 {
	var psum int64
	for _, col := range s.Columns {
		for _, e := range col.Entries {
			if e.Weight == 0 {
				continue
			}
			a := lw.Act(f, win, int(e.Src)/s.Lanes, int(e.Src)%s.Lanes)
			*terms = cfg.Backend.Terms((*terms)[:0], a, cfg.Width)
			for _, factor := range *terms {
				psum += int64(e.Weight) * factor
			}
		}
	}
	return psum
}
