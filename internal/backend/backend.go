// Package backend defines the activation back-end seam of the Bit-Tactical
// design family. A Backend captures everything the simulator, the golden
// model, the structural datapath, and the energy/area model need to know
// about how a processing element consumes activations:
//
//   - the serial term stream of each activation value: the factors a lane
//     shift-adds through the adder tree, one per cycle. Its length is the
//     value's serial cost (what cost tables and activation cost planes
//     memoize), its factors sum to the value (the golden model's
//     semantic-preservation invariant), and the structural datapath's
//     lanes stream it as is;
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

	// Terms appends to dst the serial factor stream one lane shifts
	// through the adder tree for activation code v at width w, first
	// cycle first, and returns the extended slice, as strconv.AppendInt
	// does.
	// Each cycle the lane adds weight×factor; a zero factor is an idle
	// cycle (a zero bit inside a TCLp precision window, TCLp's
	// sign-handling step, a bit-parallel multiply of zero).
	//
	// The stream is the back-end's one definition of v. Its length is the
	// serial cycles a lane spends on v (oneffset count for TCLe, dynamic
	// precision bits for TCLp, 1 for bit-parallel), which the simulator's
	// cost tables store; it must be at most 127, because the simulator
	// packs costs one per byte with bit 7 clear and panics on a longer
	// stream. Its factors sum to v, so the golden model's Σ weight×factor
	// is weight×v: every back-end is value exact, and the golden model
	// verifies the route, not the destination.
	Terms(dst []int64, v int32, w fixed.Width) []int64

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
