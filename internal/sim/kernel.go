// The window walk's column kernels. Lanes within a PE are lockstep every
// schedule column (they feed one adder tree), so the back-end's column
// duration is the maximum serial cost over the PE's participating lanes —
// the hottest reduction in the simulator: it runs once per (schedule
// column, PE row, window). A window-minor cost plane puts one lane's costs
// for consecutive windows in consecutive bytes, so a kernel folds many
// windows per load. One kernel call covers one (column, row): it lists the
// column's lanes as plane offsets, effectual ones first, folds the row's
// windows across that list into, per window, the max cost and the number
// of nonzero costs, and turns them in a census tail into peMax = max(1,
// column max) and the Figure-9 sums. evalWindows (sim.go) makes one call
// per (row, column) and picks the kernel by groupCtx.avx2: columnAVX2
// (fold_amd64.s) on a CPU with AVX2 (hasAVX2, fixed at init), 32 windows a
// block with the census in vector registers, and columnSWAR everywhere
// else, one 8-window lane-word (a uint64) a step with foldSync and
// foldCount, whose accumulators are three words that stay in registers,
// and a census tail of atLeastOne, byteSum and dot. The two share one
// signature and one contract and give bit-identical results.
//
// Invariant: every cost byte is <= maxLaneCost (127). The word-parallel
// unsigned compare borrows through bit 7 of each byte, the nonzero test
// (c + 0x7f) would carry into the next byte, and the AVX2 kernel's
// VPMADDUBSW takes peMax as its signed operand, so costs must leave the
// high bit clear. newCostTable panics on any back-end cost outside [0,
// maxLaneCost]; real costs never exceed width+1 <= 17.
//
// Exactness bounds a PE to maxLanes lanes: a kernel's byte counts reach
// at most 128, and a dot product's 16-bit fields at most 4 × 127 × 128 <
// 2^16 under dot, or 2 × 127 × 128 = 32,512 under VPMADDUBSW, whose
// unsigned operand holds the counts. TestByteMax checks byteMax
// exhaustively over 7-bit byte pairs, TestCensusKernels the census
// helpers at their bounds, and TestColumnKernels one call of either
// kernel against a scalar walk of its column; the window walk's scalar
// reference and its differential tests are in window_test.go.
package sim

import (
	"encoding/binary"
	"math/bits"

	"bittactical/internal/sched"
)

// maxLaneCost bounds the per-value serial cost stored in cost tables and
// activation cost planes, keeping bit 7 of every packed byte clear for the
// SWAR compare and the census's nonzero test.
const maxLaneCost = 127

// maxLanes is the widest PE the engine simulates: a byte count of nonzero
// costs stays at most 128, a 16-bit cost-sum field at most 2 × 127 × 128,
// and dot and VPMADDUBSW stay exact for counts up to 128. Every Table 2
// design has 16 lanes. The entry points reject a wider config (validate,
// sweep.go) before any work.
const maxLanes = 128

// blockWindows is the windows one block covers: one 32-byte AVX2 load,
// four lane-words. A cost plane ends in blockWindows spare zero bytes, so
// a block load that starts at any window of the plane's last slot stays
// inside it, and the walk's window sums hold whole blocks.
const blockWindows = 32

// blockMask is one byte per window of a block, 8 windows a word: 0xff for
// the windows the walk counts, 0 for those past the layer's last window.
type blockMask [blockWindows / 8]uint64

// SWAR constants: each byte of a word is one window.
const (
	swarHigh = 0x8080808080808080 // bit 7 of every byte
	swarLow7 = 0x7f7f7f7f7f7f7f7f // + cost sets bit 7 of a byte iff cost > 0
	swarOne  = 0x0101010101010101 // 1 in every byte
	swarEven = 0x00ff00ff00ff00ff // even bytes, widened to 16-bit fields
	swarLo32 = 0x0000ffff0000ffff // even 16-bit fields, widened to 32 bits
)

// columnSWAR is the portable kernel for one (schedule column, PE row),
// with columnAVX2's arguments, results and contract (fold_amd64.go). It
// lists the lanes without a data-dependent branch: m is all ones for an
// effectual lane and zero for an idle one, and selects the lane's slot
// (Src, or headSlot + lane) and its place in list (effectual lanes fill it
// from the front, idle ones from the back). A slot not below slots returns
// nEff = -1 before a plane byte is read. It then folds the row a lane-word
// at a time, len(sums)/2 words masked by last in the last block, and runs
// the census tail on each word, adding its peMax into sums. A word of last
// that is zero ends the row: every later window is past the layer's last.
func columnSWAR(entries []sched.Entry, headSlot, slots, windows int, plane []uint8, sums []uint64, last *blockMask, list []int, gate bool) (costE, costI, maxSum, dotE, dotI int64, nEff int) {
	back := len(entries) - 1 // the next idle lane's place
	for ln, e := range entries {
		m := -int(uint32(e.Weight|-e.Weight) >> 31)
		slot := headSlot + ln
		slot ^= (slot ^ int(e.Src)) & m
		if uint(slot) >= uint(slots) {
			return 0, 0, 0, 0, 0, -1
		}
		list[back+(nEff-back)&m] = slot * windows
		nEff -= m
		back -= 1 + m
	}
	eff, idle := list[:nEff], list[nEff:len(entries)]
	words := len(sums) / 2
	full := words - len(last) // words before the last block
	for k := 0; k < words; k++ {
		valid := ^uint64(0)
		if k >= full {
			if valid = last[k-full]; valid == 0 {
				break
			}
		}
		word := plane[8*k:]
		mx, nzE, sum := foldSync(word, eff, valid)
		costE += fieldSum(sum)
		var nzI uint64
		if gate {
			nzI = foldCount(word, idle, valid)
		} else {
			var mI uint64
			mI, nzI, sum = foldSync(word, idle, valid)
			costI += fieldSum(sum)
			mx = byteMax(mx, mI)
		}
		p := atLeastOne(mx) & valid // peMax
		maxSum += byteSum(p)
		dotE += dot(p, nzE)
		dotI += dot(p, nzI)
		sums[2*k] += p & swarEven
		sums[2*k+1] += p >> 8 & swarEven
	}
	return costE, costI, maxSum, dotE, dotI, nEff
}

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
// counts and sums are exact for at most maxLanes lanes. The loop takes
// two lanes a step: it takes their max before folding it into the running
// max, so the running max is one byteMax deep per step, and adds their
// words before widening them into the sum. A second, independent max
// chain measured slower: under the Go compiler's register allocation its
// extra accumulator spills more of the compare's temporaries to the stack.
func foldSync(plane []uint8, lanes []int, valid uint64) (mx, nz, sum uint64) {
	i := 0
	for ; i+1 < len(lanes); i += 2 {
		x0 := laneWord(plane, lanes[i], valid)
		x1 := laneWord(plane, lanes[i+1], valid)
		mx = byteMax(mx, byteMax(x0, x1))
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
// listed lane, read as in foldSync; exact for at most maxLanes lanes. It
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
