// SWAR kernels of the window walk. Lanes within a PE are lockstep every
// schedule column (they feed one adder tree), so the back-end's column
// duration is the maximum serial cost over the PE's participating lanes —
// the hottest reduction in the simulator: it runs once per (schedule
// column, PE row, window). A window-minor cost plane puts one lane's costs
// for 8 consecutive windows in one uint64, a lane-word, so evalWindows
// (sim.go) walks each (column, row)'s windows a word at a time and folds
// the word across the lanes with foldSync and foldCount. Their
// accumulators are three words that stay in registers: the column max
// (byteMax), the nonzero-cost counts one byte per window, and the cost
// sums in 16-bit fields. The census tail per word (atLeastOne, byteSum,
// dot, fieldSum) is SWAR too.
//
// Invariant: every cost byte is <= maxLaneCost (127). The word-parallel
// unsigned compare borrows through bit 7 of each byte, and the nonzero
// test (c + 0x7f) would carry into the next byte, so costs must leave the
// high bit clear. newCostTable panics on any back-end cost outside [0,
// maxLaneCost]; real costs never exceed width+1 <= 17.
//
// Exactness bounds a fold to laneChunk lanes: its byte counts reach at
// most 128, and a dot product's 16-bit fields at most 4 × 127 × 128 <
// 2^16. TestByteMax checks byteMax exhaustively over 7-bit byte pairs and
// TestCensusKernels the census helpers at their bounds; the window walk's
// scalar reference and its differential tests are in window_test.go.
package sim

import (
	"encoding/binary"
	"math/bits"
)

// maxLaneCost bounds the per-value serial cost stored in cost tables and
// activation cost planes, keeping bit 7 of every packed byte clear for the
// SWAR compare and the census's nonzero test.
const maxLaneCost = 127

// laneChunk is the most lanes one fold covers: a byte count of nonzero
// costs stays at most 128 and a 16-bit cost-sum field at most 2 × 127 ×
// 128, and dot stays exact for counts up to 128. Wider PEs fold their
// lanes a chunk at a time and add up the chunks' sums and dot products.
const laneChunk = 128

// SWAR constants: each byte of a word is one window.
const (
	swarHigh = 0x8080808080808080 // bit 7 of every byte
	swarLow7 = 0x7f7f7f7f7f7f7f7f // + cost sets bit 7 of a byte iff cost > 0
	swarOne  = 0x0101010101010101 // 1 in every byte
	swarEven = 0x00ff00ff00ff00ff // even bytes, widened to 16-bit fields
	swarLo32 = 0x0000ffff0000ffff // even 16-bit fields, widened to 32 bits
)

// byteMax returns the byte-wise max of two words whose bytes are at most
// 127: (b|H)-a sets bit 7 of a byte exactly when that byte of b is >= the
// byte of a (no inter-byte borrow, since every minuend byte is >= 0x80 and
// every subtrahend byte <= 0x7F); h - h>>7 turns each such bit into a 0x7F
// mask, which covers every bit a 7-bit byte can differ in, and the masked
// xor swaps b's bytes into a where they are larger. b passes through one
// more operation than a, so a running max goes in as a.
func byteMax(a, b uint64) uint64 {
	h := ((b | swarHigh) - a) & swarHigh
	return a ^ (a^b)&(h-h>>7)
}

// nonzero returns 1 in each byte of x that is nonzero, 0 elsewhere.
func nonzero(x uint64) uint64 { return (x + swarLow7) & swarHigh >> 7 }

// laneWord loads the lane-word at byte off of a plane: one lane's costs
// for 8 consecutive windows, masked by valid.
func laneWord(plane []uint8, off int, valid uint64) uint64 {
	return binary.LittleEndian.Uint64(plane[off:off+8:off+8]) & valid
}

// foldSync folds one lane-word of every listed lane: plane starts at the
// word's first window, so lane offset off reads plane[off:off+8]. mx is
// the byte-wise max, nz counts the nonzero costs per window and sum holds
// the costs summed in four 16-bit fields (each a pair of windows). The
// counts and sums are exact for at most laneChunk lanes. The loop takes
// two lanes a step and adds their words before widening them into the
// sum. A second, independent max chain measured slower: under the Go
// compiler's register allocation its extra accumulator spills more of the
// compare's temporaries to the stack.
func foldSync(plane []uint8, lanes []int, valid uint64) (mx, nz, sum uint64) {
	i := 0
	for ; i+1 < len(lanes); i += 2 {
		x0 := laneWord(plane, lanes[i], valid)
		x1 := laneWord(plane, lanes[i+1], valid)
		mx = byteMax(byteMax(mx, x0), x1)
		nz += nonzero(x0) + nonzero(x1)
		// Two 7-bit bytes add without a carry into the next byte.
		x01 := x0 + x1
		sum += x01&swarEven + x01>>8&swarEven
	}
	if i < len(lanes) {
		x := laneWord(plane, lanes[i], valid)
		mx = byteMax(mx, x)
		nz += nonzero(x)
		sum += x&swarEven + x>>8&swarEven
	}
	return mx, nz, sum
}

// foldCount counts the nonzero costs per window of one lane-word of every
// listed lane, read as in foldSync; exact for at most laneChunk lanes. It
// folds the idle lanes of a config whose front end gates them out of the
// column sync.
func foldCount(plane []uint8, lanes []int, valid uint64) (nz uint64) {
	for _, off := range lanes {
		nz += nonzero(laneWord(plane, off, valid))
	}
	return nz
}

// atLeastOne raises every zero byte of mx to 1: a PE spends at least the
// column's issue cycle on it.
func atLeastOne(mx uint64) uint64 { return mx | (nonzero(mx) ^ swarOne) }

// byteSum returns the sum of a word's 8 bytes, each at most 127.
func byteSum(x uint64) int64 {
	return int64((x&swarEven + x>>8&swarEven) * 0x0001000100010001 >> 48)
}

// fieldSum returns the sum of a word's four 16-bit fields, each at most
// 2^15, in 32-bit fields so the total cannot wrap.
func fieldSum(s uint64) int64 {
	t := s&swarLo32 + s>>16&swarLo32
	return int64(t&0xffffffff + t>>32)
}

// dot returns Σ_j p_j·n_j over the 8 bytes of two words, for p_j <= 127
// and n_j <= 128. Multiplying the even bytes of p, spread into 16-bit
// fields, by the even bytes of n in reverse field order puts Σ p_j·n_j
// over the even j in the product's top field; the odd bytes do the same.
// Every 16-bit field of either product is a sum of at most 4 terms of at
// most 127 × 128, below 2^16, so no field carries into the next.
func dot(p, n uint64) int64 {
	r := bits.ReverseBytes64(n)
	even := (p & swarEven) * (r >> 8 & swarEven) >> 48
	odd := (p >> 8 & swarEven) * (r & swarEven) >> 48
	return int64(even + odd)
}
