//go:build !amd64

package sim

// hasAVX2 is false off amd64: the window walk folds with the portable
// SWAR fold alone.
const hasAVX2 = false

// foldAVX2 is never called off amd64, where hasAVX2 is false.
func foldAVX2(plane []uint8, lanes []int, valid *blockMask, f *blockFold) {
	panic("sim: AVX2 fold on a non-amd64 build")
}
