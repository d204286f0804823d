package backend

import (
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
)

// The paper's three back-ends (Table 2 / Section 5.2), registered at init.
func init() {
	Register(bitParallel{})
	Register(tclp{})
	Register(tcle{})
}

// ---- bit-parallel (DaDianNao++ and the Figure 8a front-end-only rows) ----

// bitParallel multiplies one full-width activation per cycle.
type bitParallel struct{}

func (bitParallel) Name() string         { return "bit-parallel" }
func (bitParallel) Serial() bool         { return false }
func (bitParallel) OffsetEncoder() bool  { return false }
func (bitParallel) Energy() EnergyCoeffs { return EnergyCoeffs{} }
func (bitParallel) Area() AreaCoeffs {
	return AreaCoeffs{ComputeCorePerLaneMM2: 0.003193, ASUWireBits: 16}
}

// Terms is one full-width multiply per value regardless of content: the
// multiplier does not exploit the activation's bits, and a zero still
// burns the cycle.
func (bitParallel) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	return append(dst, int64(v))
}

// ---- TCLp (Dynamic-Stripes-style dynamic precision, Section 5.2) ----

// tclp streams activations bit-serially over their per-value dynamic
// precision window [Lo, Hi], with a trailing sign-handling step for
// negative values.
type tclp struct{}

func (tclp) Name() string        { return "TCLp" }
func (tclp) Serial() bool        { return true }
func (tclp) OffsetEncoder() bool { return false }
func (tclp) Energy() EnergyCoeffs {
	return EnergyCoeffs{SerialOpPJ: 0.26}
}
func (tclp) Area() AreaCoeffs {
	return AreaCoeffs{ComputeCorePerLaneMM2: 0.000552, DispatcherMM2: 0.39, ASUWireBits: 1}
}

// Terms walks the trimmed magnitude window [Lo, Hi] bit by bit, a signed
// factor for each set bit and an idle cycle for each clear one, then idles
// one more cycle on a negative value's sign handling.
func (tclp) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	p := bits.ValuePrecision(v, w)
	sign, m := int64(1), int64(v)
	if p.Neg {
		sign, m = -1, -m
	}
	for b := p.Lo; b <= p.Hi; b++ {
		dst = append(dst, sign*(m&(1<<uint(b))))
	}
	if p.Neg {
		dst = append(dst, 0) // sign-handling step
	}
	return dst
}

// ---- TCLe (Pragmatic-style oneffsets, Section 5.2) ----

// tcle streams activations serially over their Booth-encoded effectual
// terms, one signed shift-add per oneffset.
type tcle struct{}

func (tcle) Name() string        { return "TCLe" }
func (tcle) Serial() bool        { return true }
func (tcle) OffsetEncoder() bool { return true }
func (tcle) Energy() EnergyCoeffs {
	return EnergyCoeffs{SerialOpPJ: 0.55, OffsetEncodePJ: 0.35}
}
func (tcle) Area() AreaCoeffs {
	return AreaCoeffs{ComputeCorePerLaneMM2: 0.001132, DispatcherMM2: 0.37, OffsetGenMM2: 2.89, ASUWireBits: 4}
}

// Terms is one signed shift-add per oneffset of the Booth encoding.
func (tcle) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	return bits.AppendBooth(dst, v, w)
}
