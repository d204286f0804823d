//go:build !amd64

package sim

import "bittactical/internal/sched"

// hasAVX2 is false off amd64: the window walk runs the portable SWAR fold
// alone.
const hasAVX2 = false

// columnAVX2 is never called off amd64, where hasAVX2 is false.
func columnAVX2(entries []sched.Entry, headSlot, slots, windows int, plane []uint8, sums []uint64, last *blockMask, list []int, gate bool) (costE, costI, maxSum, dotE, dotI int64, nEff int) {
	panic("sim: AVX2 kernel on a non-amd64 build")
}
