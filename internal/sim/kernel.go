// SWAR byte kernels. Lanes within a PE are lockstep every schedule column
// (they feed one adder tree), so the back-end's column duration is the
// maximum serial cost over the PE's participating lanes — the hottest
// reduction in the simulator: it runs once per (schedule column, PE row,
// window). byteMax computes that max branch-free for 8 bytes at once with
// word-parallel byte compares. evalWindows (sim.go) applies it across
// windows: a window-minor cost plane puts one lane's costs for 8
// consecutive windows in one uint64, so folding a column's lanes yields 8
// windows' column maxima per word.
//
// Invariant: every cost byte is <= maxLaneCost (127). The word-parallel
// unsigned compare borrows through bit 7 of each byte, and the census's
// nonzero test (c + 0x7f) would carry into the next byte, so costs must
// leave the high bit clear. newCostTable panics on any back-end cost
// outside [0, maxLaneCost]; real costs never exceed width+1 <= 17.
//
// TestByteMax checks byteMax exhaustively over 7-bit byte pairs; the window
// walk's scalar reference and its differential tests are in window_test.go.
package sim

// maxLaneCost bounds the per-value serial cost stored in cost tables and
// activation cost planes, keeping bit 7 of every packed byte clear for the
// SWAR compare and the census's nonzero test.
const maxLaneCost = 127

// laneWords returns the number of uint64 words that hold `lanes` packed
// byte costs.
func laneWords(lanes int) int { return (lanes + 7) / 8 }

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
