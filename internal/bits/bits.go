// Package bits provides the bit-level value analyses that drive the two
// Bit-Tactical back-ends:
//
//   - TCLe processes activations serially over their "oneffsets": the
//     non-zero signed powers of two of the modified-Booth-encoded value
//     (Section 5.2, following Pragmatic). Oneffsets reduce the term count
//     versus plain binary, e.g. 0b0000_0000_1000_1111 encodes as
//     {+2^7, +2^4, -2^0}: three terms instead of five set bits.
//   - TCLp processes activations bit-serially between the group's most- and
//     least-significant non-zero bit positions ("dynamic precision",
//     following Dynamic Stripes): 0b0000_0000_1000_1110 costs 7 cycles —
//     8 prefix and 1 suffix zero bits are skipped.
//
// All functions operate on two's-complement codes carried in int32 at a
// declared width.
package bits

import (
	"math/bits"
	"slices"

	"bittactical/internal/fixed"
)

// AppendBooth appends the modified-Booth ("canonical signed digit")
// encoding of v at width w to dst and returns the extended slice, as
// strconv.AppendInt does: the minimal-length list of signed powers of two
// (±2^k) summing to v, most-significant first, which is the order the TCLe
// offset generator streams them to the shifters. Zero appends nothing.
func AppendBooth(dst []int64, v int32, w fixed.Width) []int64 {
	start := len(dst)
	// Canonical signed-digit recoding: scan from LSB, replace runs of ones
	// 0111..1 with 1000..-1. Work in int64 to keep the +2^w carry visible.
	x := int64(v)
	for p := int64(1); x != 0; p <<= 1 {
		if x&1 == 1 {
			// Two's-complement remainder mod 4 decides the digit.
			if x&3 == 3 { // ...11 -> digit -1, carry
				dst = append(dst, -p)
				x++
			} else { // ...01 -> digit +1
				dst = append(dst, p)
				x--
			}
		}
		x >>= 1
	}
	slices.Reverse(dst[start:]) // MSB first
	return dst
}

// OneffsetCount returns the number of effectual terms of v, i.e. the number
// of back-end cycles TCLe spends on this activation.
func OneffsetCount(v int32, w fixed.Width) int {
	if v == 0 {
		return 0
	}
	// Count digits of the canonical signed-digit form without materializing
	// the term list: number of transitions trick. CSD digit count of x equals
	// popcount(x XOR (x<<1) ... ) is subtle for negatives; do the scan.
	x := int64(v)
	n := 0
	for x != 0 {
		if x&1 == 1 {
			n++
			if x&3 == 3 {
				x++
			} else {
				x--
			}
		}
		x >>= 1
	}
	return n
}

// Precision describes the dynamic precision window of a value or group:
// the bit positions [Lo, Hi] that must be transmitted/processed serially.
type Precision struct {
	Hi int // most significant needed bit position (0-based)
	Lo int // least significant needed bit position (0-based)
	// Neg records whether any member was negative (needs the sign path).
	Neg bool
}

// Bits returns the number of serial cycles the window costs; zero for an
// empty (all-zero) window.
func (p Precision) Bits() int {
	if p.Hi < p.Lo {
		return 0
	}
	n := p.Hi - p.Lo + 1
	if p.Neg {
		n++ // sign bit is streamed alongside for negative groups
	}
	return n
}

// ValuePrecision returns the precision window of a single value at width w.
// For negative values the magnitude is analysed, matching the paper's
// sign-magnitude serial streaming (Dynamic Stripes).
func ValuePrecision(v int32, w fixed.Width) Precision {
	if v == 0 {
		return Precision{Hi: -1, Lo: 0}
	}
	neg := v < 0
	m := uint32(v)
	if neg {
		m = uint32(-int64(v))
	}
	hi := 31 - bits.LeadingZeros32(m)
	lo := bits.TrailingZeros32(m)
	return Precision{Hi: hi, Lo: lo, Neg: neg}
}

// GroupPrecision returns the union precision window of a group of values:
// Hi is the max needed msb, Lo the min needed lsb. This is the per-group
// dynamic precision TCLp detects in hardware and the off-chip compressor
// stores per group of 16 values.
func GroupPrecision(vs []int32, w fixed.Width) Precision {
	g := Precision{Hi: -1, Lo: int(w)}
	any := false
	for _, v := range vs {
		if v == 0 {
			continue
		}
		p := ValuePrecision(v, w)
		if !any {
			g = p
			any = true
			continue
		}
		if p.Hi > g.Hi {
			g.Hi = p.Hi
		}
		if p.Lo < g.Lo {
			g.Lo = p.Lo
		}
		g.Neg = g.Neg || p.Neg
	}
	if !any {
		return Precision{Hi: -1, Lo: 0}
	}
	return g
}
