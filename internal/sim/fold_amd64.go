package sim

// hasAVX2 reports whether this CPU and OS run AVX2 code; the window walk
// folds with foldAVX2 when it holds and with the portable SWAR fold
// otherwise. It is fixed at init.
var hasAVX2 = detectAVX2()

// detectAVX2 requires CPUID leaf 1's OSXSAVE and AVX bits (ECX 27 and 28),
// XCR0's SSE and AVX state bits (1 and 2: the OS saves the YMM registers)
// and CPUID leaf 7's AVX2 bit (EBX 5).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// foldAVX2 is the window walk's AVX2 fold: it folds the whole 32-window
// block of every listed lane, reading 32 bytes at &plane[0]+off for each
// lane offset off and masking them by valid, into f's per-window max,
// per-window nonzero count and cost sum. It is exact for at most
// laneChunk lanes, does no bounds check (the walk holds off + block start
// + 32 <= len(plane data)), and may only run when hasAVX2 holds.
//
//go:noescape
func foldAVX2(plane []uint8, lanes []int, valid *blockMask, f *blockFold)

// cpuid executes CPUID for leaf (EAX) and subleaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state components the OS saves.
func xgetbv() (eax uint32)
