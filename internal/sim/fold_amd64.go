package sim

import "bittactical/internal/sched"

// hasAVX2 reports whether this CPU and OS run AVX2 code; the window walk
// calls columnAVX2 when it holds and columnSWAR otherwise. It is fixed at
// init.
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

// columnAVX2 is the window walk's AVX2 kernel for one (schedule column,
// PE row); the walk calls it when groupCtx.avx2 holds, and columnSWAR
// (kernel.go) honors the same contract everywhere else. entries is the
// column's lanes, headSlot the column head's first slot (Head × Lanes) and
// slots the layer's Steps × Lanes. It partitions the lanes into list,
// effectual ones first, as plane byte offsets (slot × windows), and
// returns nEff = -1 before it reads a plane byte if any slot is not below
// slots. It then walks every 32-window block of the row's cost plane,
// len(sums)/8 of them, masking the last by last, adds each block's peMax
// into the row's window sums, and returns the effectual cost sum, the idle
// one (0 when gate holds), Σ peMax, Σ peMax·nzE, Σ peMax·nzI and the
// effectual count. It is exact for at most maxLanes lanes and does no
// other bounds check: the walk holds (slots-1) × windows + 32 ×
// len(sums)/8 <= len(plane) and len(list) >= len(entries).
//
//go:noescape
func columnAVX2(entries []sched.Entry, headSlot, slots, windows int, plane []uint8, sums []uint64, last *blockMask, list []int, gate bool) (costE, costI, maxSum, dotE, dotI int64, nEff int)

// cpuid executes CPUID for leaf (EAX) and subleaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state components the OS saves.
func xgetbv() (eax uint32)
