// Package backend defines the activation back-end seam of the Bit-Tactical
// design family. A Backend captures everything the simulator, the golden
// model, the structural datapath, and the energy/area model need to know
// about how a processing element consumes activations:
//
//   - the per-value serial cost at a datapath width (the quantity cost
//     tables and activation cost planes memoize);
//   - the reference arithmetic (how a weight×activation product is formed,
//     exactly — the golden model's semantic-preservation invariant);
//   - the cycle-by-cycle serial term stream (what the structural datapath's
//     lanes shift through the adder tree);
//   - the energy and area coefficients of the lane hardware.
//
// The paper's three back-ends — bit-parallel DaDianNao++, TCLp
// (Dynamic-Stripes-style dynamic precision) and TCLe (Pragmatic-style
// oneffsets) — are registered here at init. New back-ends register
// themselves from their own package (see internal/backend/dstripes) and
// become runnable end-to-end through every engine package without touching
// any of them: the engines dispatch exclusively through this interface.
package backend

import (
	"bittactical/internal/fixed"
)

// Backend is one activation consumption model. Implementations must be
// stateless (safe for concurrent use) and registered under a unique name.
type Backend interface {
	// Name is the display and registry name ("bit-parallel", "TCLp", ...).
	// Lookup is case-insensitive; Name's casing is used in config labels.
	Name() string

	// Serial reports whether activations stream over multiple cycles. A
	// serial tile provisions one PE window column per data bit to match the
	// bit-parallel baseline's peak throughput; false means one full
	// activation is consumed per cycle.
	Serial() bool

	// OffsetEncoder reports whether activations pass through an offset
	// generator before the lanes (TCLe's Booth encoder). It drives the
	// OffsetEncodes activity census and the offset-generator energy/area.
	OffsetEncoder() bool

	// Cost returns the serial cycles one lane spends on activation code v
	// at width w: oneffset count for TCLe, dynamic precision bits for TCLp,
	// 1 for bit-parallel. This is the value cost tables and activation cost
	// planes precompute per code. It must lie in [0, 127]: the simulator
	// packs costs one per byte with bit 7 clear, and panics on a cost
	// outside that range.
	Cost(v int32, w fixed.Width) int

	// MAC returns the contribution of one (weight, activation) pair to a
	// partial sum, computed through the back-end's own arithmetic (e.g. a
	// Booth shift-add sequence for TCLe). Every back-end must be value
	// exact: the result always equals weight*act — the golden model
	// verifies the route, not the destination.
	MAC(weight, act int32, w fixed.Width) int64

	// Terms expands an activation into the serial factor stream a lane
	// shifts through the adder tree, in issue order. A zero factor is an
	// idle lane cycle (e.g. a zero bit inside a TCLp precision window);
	// the stream's length must equal Cost(act, w) for nonzero activations
	// so the structural datapath's cycle counts cross-validate against the
	// analytic cost model.
	Terms(act int32, w fixed.Width) []int64

	// Energy returns the back-end's per-event energy coefficients.
	Energy() EnergyCoeffs

	// Area returns the back-end's post-layout area coefficients.
	Area() AreaCoeffs
}

// EnergyCoeffs are the back-end-specific per-event energies in pJ at
// 65 nm / 1 GHz / 16-bit; the energy model scales them linearly for
// narrower datapaths.
type EnergyCoeffs struct {
	// SerialOpPJ prices one serial lane cycle (a 16-bit weight shift-add
	// for TCLe, a bit-AND-add for TCLp). Zero for bit-parallel back-ends,
	// whose work is priced per full multiply instead.
	SerialOpPJ float64
	// OffsetEncodePJ prices one activation through the offset generator;
	// zero when the back-end has none.
	OffsetEncodePJ float64
}

// AreaCoeffs are the back-end-specific terms of the Table 3 area
// accounting, in mm² at 65 nm.
type AreaCoeffs struct {
	// ComputeCorePerLaneMM2 is the lane datapath area (multiplier or
	// serial shift/AND-add stage plus its adder-tree share) per lane.
	ComputeCorePerLaneMM2 float64
	// DispatcherMM2 is the serial dispatcher; zero for bit-parallel.
	DispatcherMM2 float64
	// OffsetGenMM2 is the offset generator; zero when the back-end has
	// none.
	OffsetGenMM2 float64
	// ASUWireBits is the per-activation wire width through the ASU
	// shuffling network: 1 for bit-serial, 4 for oneffset streams, 16 for
	// a full bit-parallel value.
	ASUWireBits float64
}
