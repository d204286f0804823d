// Activation cost planes. The serial cost of an activation value — dynamic
// precision bits for TCLp, Booth oneffsets for TCLe — depends only on the
// value and the datapath width, and the activation behind a (window, step,
// lane) slot depends on the PE row's filter index only through the
// filter's act group (nn.Lowered.ActGroups): not at all for FC and
// ungrouped conv (one group), through the input-channel slice for grouped
// conv (one group per filter group), and through the channel itself for
// depthwise (one group per filter). A costPlane precomputes that cost for
// every slot of one (layer, act group) exactly once, so the window walk
// loads flat cost bytes instead of re-deriving each cost through an Act
// fetch and a costTable mask for every (column, row, window, lane) tuple —
// work that previously repeated per filter group and per sweep config, and
// that row-variant layers repeated per PE row.
//
// A plane is a pure function of (activations, lowering geometry, act
// group, back-end, width). It does not depend on the front-end pattern,
// the scheduling algorithm, tile geometry, or the weights, which is why
// one plane is shared across every config of a sweep that fixes the
// back-end and width (PlaneCache).
package sim

import (
	"bittactical/internal/nn"
)

// costPlane stores each activation's serial cost for one (lowered layer,
// act group) at one (back-end, width), window-minor: a packed
// [Steps*Lanes][WindowCount]uint8 with one row of WindowCount cost bytes
// per dense-schedule (step, lane) slot, followed by blockWindows (32)
// spare zero bytes. Slot s = step*Lanes + lane starts at byte
// s*WindowCount of data and holds its costs for consecutive windows as
// consecutive bytes, so the window walk loads one lane's costs for a
// 32-window block with one AVX2 load, or for 8 windows with one
// little-endian uint64. The spare bytes keep a block load that starts at
// any window of the last slot in bounds (offset + block start + 32 <=
// len(data)); bytes a load reads past its slot's last window belong to the
// next slot (or the spare) and the walk masks them out.
//
// Planes are immutable after build and shared read-only across
// goroutines, groups, and configs.
type costPlane struct {
	windows int
	data    []uint8
}

// buildPlane evaluates one act group's activation costs once per slot.
// The fetch uses the group's representative filter index, which
// ActGroupRep guarantees is representative of every PE row whose filter
// falls in the group.
func buildPlane(lw *nn.Lowered, ct *costTable, actGroup int) *costPlane {
	steps, lanes, W := lw.Steps, lw.Lanes, lw.WindowCount
	rep := lw.ActGroupRep(actGroup)
	p := &costPlane{
		windows: W,
		data:    make([]uint8, steps*lanes*W+blockWindows),
	}
	i := 0
	for st := 0; st < steps; st++ {
		for ln := 0; ln < lanes; ln++ {
			for win := 0; win < W; win++ {
				p.data[i] = ct.costU8(lw.Act(rep, win, st, ln))
				i++
			}
		}
	}
	return p
}

// sizeBytes is the plane's resident size, the unit the PlaneCache budget is
// accounted in.
func (p *costPlane) sizeBytes() int64 { return int64(len(p.data)) }
