// Package fixed implements the fixed-point number representation used
// throughout the Bit-Tactical simulator.
//
// The paper's datapath operates on 16-bit (and, in Section 6.5, 8-bit)
// fixed-point activations and weights. A value is a signed integer code at
// a declared width. Saturation (Sat, RequantizeProduct) is symmetric,
// matching common inference quantizers.
package fixed

import "fmt"

// Width describes a fixed-point data width in bits, including sign.
type Width int

// Supported data widths. The paper evaluates 16-bit models throughout and
// 8-bit models in Section 6.5 (Figure 13).
const (
	W16 Width = 16
	W8  Width = 8
)

// MaxInt returns the largest representable integer at width w.
func (w Width) MaxInt() int32 { return int32(1)<<(int(w)-1) - 1 }

// MinInt returns the smallest representable integer at width w.
// Symmetric quantization is used, so MinInt == -MaxInt; the most negative
// two's-complement code is unused, which keeps Booth term counts bounded.
func (w Width) MinInt() int32 { return -w.MaxInt() }

// Mask returns a bit mask with the low w bits set.
func (w Width) Mask() uint32 { return uint32(1)<<uint(w) - 1 }

func (w Width) String() string { return fmt.Sprintf("%db", int(w)) }

// Valid reports whether w is one of the supported widths.
func (w Width) Valid() bool { return w == W16 || w == W8 }

// SignExtend reinterprets the low w bits of code as a two's-complement
// signed value: bit w-1 is the sign. This is the inverse of masking a code
// with w.Mask() — for any value v representable at width w,
// SignExtend(uint32(v)&w.Mask(), w) == v. Cost-table and plane builders use
// it to reconstruct the signed activation behind each table index.
func SignExtend(code uint32, w Width) int32 {
	shift := 32 - uint(w)
	return int32(code<<shift) >> shift
}

// Sat saturates v to width w.
func Sat(v int64, w Width) int32 {
	max, min := int64(w.MaxInt()), int64(w.MinInt())
	if v > max {
		return int32(max)
	}
	if v < min {
		return int32(min)
	}
	return int32(v)
}

// RequantizeProduct narrows a 2w-bit accumulator value back to width w,
// dropping frac fractional bits with round-to-nearest-even.
func RequantizeProduct(acc int64, frac int, w Width) int32 {
	if frac <= 0 {
		return Sat(acc<<uint(-frac), w)
	}
	half := int64(1) << uint(frac-1)
	q := (acc + half) >> uint(frac)
	// Round half to even.
	if acc&(half*2-1) == half && q&1 == 1 {
		q--
	}
	return Sat(q, w)
}
