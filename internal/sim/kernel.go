// SWAR byte kernels. Lanes within a PE are lockstep every schedule column
// (they feed one adder tree), so the back-end's column duration is the
// maximum serial cost over the PE's participating lanes — the hottest
// reduction in the simulator: it runs once per (schedule column, PE row,
// window). byteMax computes that max branch-free for 8 bytes at once with
// word-parallel byte compares. evalWindows (sim.go) applies it across
// windows: a window-minor cost plane puts one lane's costs for 8
// consecutive windows in one uint64, so folding a column's lanes yields 8
// windows' column maxima per word. columnMax applies it across lanes
// instead, packing 8 lanes' costs for one window per word; the engine no
// longer calls it, and it stays, with columnMaxScalar and the exported
// ColumnMax pair, as the workload of the kernel benchmark suite.
//
// Invariants:
//
//   - every cost byte is <= maxLaneCost (127): the word-parallel unsigned
//     compare borrows through bit 7 of each byte, and the census's
//     nonzero test (c + 0x7f) would carry into the next byte, so costs
//     must leave the high bit clear. newCostTable panics on any back-end
//     cost outside [0, maxLaneCost]; real costs never exceed width+1 <= 17.
//   - columnMax's cost slices are zero-padded to a whole number of 8-byte
//     words (padLanes), and mask bytes are exactly 0x00 (lane excluded) or
//     0xFF (lane participates); padding bytes are 0x00.
//
// columnMaxScalar is columnMax's reference implementation;
// FuzzColumnMaxSWAR and TestColumnMaxMatchesScalar pin the two
// bit-identical over random columns and lane counts, including lane counts
// not divisible by 8. The window walk has its own scalar reference in
// window_test.go.
package sim

import "encoding/binary"

// maxLaneCost bounds the per-value serial cost stored in cost tables and
// activation cost planes, keeping bit 7 of every packed byte clear for the
// SWAR compare and the census's nonzero test.
const maxLaneCost = 127

// laneWords returns the number of uint64 words that hold `lanes` packed
// byte costs.
func laneWords(lanes int) int { return (lanes + 7) / 8 }

// padLanes rounds a lane count up to a whole number of SWAR words, the
// required length of a cost buffer.
func padLanes(lanes int) int { return laneWords(lanes) * 8 }

// swarHigh selects bit 7 of every byte of a word.
const swarHigh = 0x8080808080808080

// byteMax returns the byte-wise unsigned max of two words, valid for byte
// values <= 127: (a|H)-b sets bit 7 of a byte exactly when that byte of a
// is >= the byte of b (no inter-byte borrow, since every minuend byte is >=
// 0x80 and every subtrahend byte <= 0x7F), and ge*0xFF spreads each
// resulting comparison bit into a full byte-select mask.
func byteMax(a, b uint64) uint64 {
	ge := (((a | swarHigh) - b) & swarHigh) >> 7
	m := ge * 0xff
	return (a & m) | (b &^ m)
}

// columnMax returns max(1, max cost over participating lanes): the cycles
// the PE spends on this schedule column. cost is a padLanes-sized buffer of
// per-lane serial costs; mask holds laneWords words with 0xFF bytes for
// participating lanes (effectual weights, or every lane when the config has
// no front-end to gate ineffectual ones) and 0x00 elsewhere. The floor of 1
// models the column issue slot: even a column whose every participating
// lane is zero-cost occupies the PE for a cycle.
func columnMax(cost []uint8, mask []uint64) int {
	var m uint64
	for i, w := range mask {
		m = byteMax(m, binary.LittleEndian.Uint64(cost[i*8:])&w)
	}
	m = byteMax(m, m>>32)
	m = byteMax(m, m>>16)
	m = byteMax(m, m>>8)
	if c := int(m & 0xff); c > 1 {
		return c
	}
	return 1
}

// columnMaxScalar is the reference column-max: the byte loop the engine ran
// before the SWAR kernel, kept as the executable specification the kernel
// is differentially tested against.
func columnMaxScalar(cost []uint8, mask []uint64) int {
	peMax := 1
	for ln := 0; ln < len(cost); ln++ {
		if mask[ln>>3]>>(8*uint(ln&7))&0xff != 0 && int(cost[ln]) > peMax {
			peMax = int(cost[ln])
		}
	}
	return peMax
}

// ColumnMax exposes the SWAR column-max to benchmark tooling outside the
// package; ColumnMaxScalar is its executable reference. Engine code calls
// the unexported kernels directly.
func ColumnMax(cost []uint8, mask []uint64) int       { return columnMax(cost, mask) }
func ColumnMaxScalar(cost []uint8, mask []uint64) int { return columnMaxScalar(cost, mask) }
