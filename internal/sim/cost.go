// Package sim is the cycle-level execution model of Bit-Tactical and its
// dense baseline. It is exact at the schedule-column granularity: the TCL
// datapath is synchronous at column boundaries (the WS issues one column of
// weight/mux-select pairs at a time, and all PE columns of a tile share the
// weight schedule), so accounting column durations reproduces cycle counts
// (DESIGN.md §2).
//
// One Simulate covers the whole family:
//
//   - DaDianNao++: no front-end, bit-parallel back-end;
//   - Figure 8a front-end-only rows: pattern + bit-parallel back-end;
//   - TCLp / TCLe: pattern + serial back-end;
//   - Dynamic Stripes / Pragmatic: no front-end + serial back-end.
package sim

import (
	"fmt"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
)

// costTable memoizes the back-end's per-value serial cost of every code at
// a width: the length of the registered Backend's term stream — oneffset
// count for TCLe, dynamic precision bits for TCLp, 1 for the bit-parallel
// back-end.
type costTable struct {
	width fixed.Width
	tab   []uint8
}

// newCostTable stores len(be.Terms) for every code at width w, streaming
// each code into one reused buffer. The window walk packs costs one per
// byte and relies on bit 7 staying clear (kernel.go), so a stream longer
// than maxLaneCost would corrupt the neighbouring windows' column max and
// census. Real streams are far below the bound (TCLp <= width+1, TCLe <=
// ceil((width+1)/2)); only a bug in a compiled-in back-end can exceed it,
// so it panics rather than clamping a wrong cost into a plausible one.
func newCostTable(be backend.Backend, w fixed.Width) *costTable {
	n := 1 << uint(w)
	ct := &costTable{width: w, tab: make([]uint8, n)}
	var terms []int64
	for i := 0; i < n; i++ {
		v := fixed.SignExtend(uint32(i), w)
		terms = be.Terms(terms[:0], v, w)
		if len(terms) > maxLaneCost {
			panic(fmt.Sprintf("sim: back-end %q costs code %d at width %d as %d cycles, more than %d",
				be.Name(), v, int(w), len(terms), maxLaneCost))
		}
		ct.tab[i] = uint8(len(terms))
	}
	return ct
}

// costU8 returns the serial cycles the back-end spends on code v, as the
// byte the hot loop's cost grids hold.
func (ct *costTable) costU8(v int32) uint8 {
	return ct.tab[uint32(v)&ct.width.Mask()]
}
