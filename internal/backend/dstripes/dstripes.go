// Package dstripes ships the sign-magnitude Dynamic Stripes back-end as a
// registry plugin: importing it (usually blank, from a main package or the
// facade) makes "dstripes-sm" available to every engine package through
// backend.Lookup, with zero edits to internal/sim, internal/energy, or
// internal/datapath.
//
// Semantics: activations stream bit-serially in sign-magnitude form. The
// lane walks every magnitude bit from bit 0 up to the value's highest set
// bit — unlike TCLp there is no trailing-zero trim (the serial counter
// always starts at bit 0) and no extra sign-handling cycle (the sign
// travels beside the magnitude and steers the adder tree directly). That
// walk is the back-end's term stream, its one definition: the engine's
// cost tables read its length, the golden model its factors. A zero
// activation costs nothing; the front-end scheduler skips it like any
// other ineffectual value.
package dstripes

import (
	"bittactical/internal/backend"
	"bittactical/internal/fixed"
)

// Name is the registry name of the sign-magnitude Dynamic Stripes back-end.
const Name = "dstripes-sm"

func init() {
	backend.Register(signMagnitude{})
}

type signMagnitude struct{}

func (signMagnitude) Name() string        { return Name }
func (signMagnitude) Serial() bool        { return true }
func (signMagnitude) OffsetEncoder() bool { return false }

// Energy and area mirror the TCLp lane: the sign-magnitude stage is the
// same AND-add datapath, with the sign folded into the adder tree instead
// of a terminal correction step.
func (signMagnitude) Energy() backend.EnergyCoeffs {
	return backend.EnergyCoeffs{SerialOpPJ: 0.26}
}

func (signMagnitude) Area() backend.AreaCoeffs {
	return backend.AreaCoeffs{ComputeCorePerLaneMM2: 0.000552, DispatcherMM2: 0.39, ASUWireBits: 1}
}

// Terms walks every magnitude bit from 0 through the highest set bit — Hi+1
// cycles, no low-order trim, no sign cycle — a factor signed by the
// value's sign for each set bit and an idle cycle for each clear one. Zero
// streams nothing.
func (signMagnitude) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	sign, m := int64(1), int64(v)
	if m < 0 {
		sign, m = -1, -m
	}
	for b := uint(0); m>>b != 0; b++ {
		dst = append(dst, sign*(m&(1<<b)))
	}
	return dst
}
