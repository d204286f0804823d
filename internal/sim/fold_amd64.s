#include "textflag.h"

// func columnAVX2(entries []sched.Entry, headSlot, slots, windows int, plane []uint8, sums []uint64, last *blockMask, list []int, gate bool) (costE, costI, maxSum, dotE, dotI int64, nEff int)
//
// One (schedule column, PE row) of the window walk. First the lane list:
// lane ln reads slot Src when its weight is nonzero and headSlot+ln when
// it is zero; every slot must lie below slots (one unsigned compare, so a
// negative Src fails too) or the kernel returns nEff = -1 before it reads
// a plane byte. The list holds each slot's plane offset, slot × windows,
// effectual lanes from the front and idle ones from the back, placed by
// conditional moves rather than a branch on the weight.
//
// Then the row's 32-window blocks, len(sums)/8 of them, at plane + 32b.
// Per block Y1 is the column max over the syncing lanes, Y2 and Y3 the
// nonzero counts over the effectual and the idle lanes; Y0 masks the
// loads (all ones, or *last for the row's last block). The tail turns Y1
// into peMax = max(1, column max) & mask and adds, in 64-bit fields,
// Σ peMax (Y10), Σ peMax·nzE (Y11) and Σ peMax·nzI (Y12); Y8 and Y9
// collect the effectual and (ungated) idle cost sums. VPMADDUBSW takes
// the counts (<= 128) as its unsigned operand and peMax (<= 127) as its
// signed one, so a pair sum is at most 32,512 and never saturates, and
// VPMADDWD against ones gives 32-bit sums of at most 65,024, widened to
// 64 bits every block. Each block's peMax also goes into sums in the
// walk's window-sum layout: per 8 windows, the even windows' 16-bit
// fields, then the odd windows'.
TEXT ·columnAVX2(SB), NOSPLIT, $0-184
	MOVQ entries_base+0(FP), SI
	MOVQ entries_len+8(FP), CX
	MOVQ headSlot+24(FP), R8
	MOVQ slots+32(FP), R9
	MOVQ windows+40(FP), R10
	MOVQ list_base+104(FP), DI
	XORQ AX, AX                 // next effectual position
	LEAQ -1(CX), DX             // next idle position
	XORQ R11, R11               // lane
	TESTQ CX, CX
	JZ walk

part:
	MOVLQSX 4(SI)(R11*8), R12   // Src
	LEAQ (R8)(R11*1), R13       // the head's slot
	MOVQ DX, R14
	XORQ BX, BX
	CMPL (SI)(R11*8), $0
	CMOVQNE R12, R13            // slot: Src for a nonzero weight
	CMOVQNE AX, R14             // position: the front for a nonzero weight
	SETNE BX
	CMPQ R13, R9
	JAE bad
	IMULQ R10, R13
	MOVQ R13, (DI)(R14*8)
	ADDQ BX, AX
	LEAQ -1(DX)(BX*1), DX
	INCQ R11
	CMPQ R11, CX
	JNE part

walk:
	MOVQ AX, R12                // nEff
	MOVQ CX, R13
	SUBQ AX, R13                // idle lanes
	LEAQ (DI)(AX*8), R11        // the idle lanes' offsets
	MOVQ plane_base+48(FP), SI
	MOVQ sums_base+72(FP), DX
	MOVQ sums_len+80(FP), R8
	SHRQ $3, R8                 // blocks
	MOVQ last+96(FP), R9
	MOVBLZX gate+128(FP), R10
	VPXOR Y4, Y4, Y4
	VPCMPEQB Y0, Y0, Y0
	VPABSB Y0, Y5               // 1 in every byte
	VPSRLW $15, Y0, Y13         // 1 in every 16-bit field
	VPSRLW $8, Y0, Y14          // the low byte of every 16-bit field
	VPSRLQ $32, Y0, Y15         // the low half of every 64-bit field
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	TESTQ R8, R8
	JZ done

block:
	CMPQ R8, $1
	JNE counted
	VMOVDQU (R9), Y0

counted:
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ DI, AX
	MOVQ R12, CX
	TESTQ CX, CX
	JZ idle

eff:
	MOVQ (AX), BX
	VPAND (SI)(BX*1), Y0, Y6
	VPMAXUB Y6, Y1, Y1
	VPMINUB Y5, Y6, Y7
	VPADDB Y7, Y2, Y2
	VPSADBW Y4, Y6, Y7
	VPADDQ Y7, Y8, Y8
	ADDQ $8, AX
	DECQ CX
	JNZ eff

idle:
	MOVQ R11, AX
	MOVQ R13, CX
	TESTQ CX, CX
	JZ tail
	TESTQ R10, R10
	JNZ gated

ungated:
	MOVQ (AX), BX
	VPAND (SI)(BX*1), Y0, Y6
	VPMAXUB Y6, Y1, Y1
	VPMINUB Y5, Y6, Y7
	VPADDB Y7, Y3, Y3
	VPSADBW Y4, Y6, Y7
	VPADDQ Y7, Y9, Y9
	ADDQ $8, AX
	DECQ CX
	JNZ ungated
	JMP tail

gated:
	MOVQ (AX), BX
	VPAND (SI)(BX*1), Y0, Y6
	VPMINUB Y5, Y6, Y7
	VPADDB Y7, Y3, Y3
	ADDQ $8, AX
	DECQ CX
	JNZ gated

tail:
	VPMAXUB Y5, Y1, Y1
	VPAND Y0, Y1, Y1            // peMax
	VPSADBW Y4, Y1, Y6
	VPADDQ Y6, Y10, Y10
	VPMADDUBSW Y1, Y2, Y6       // nzE (unsigned) · peMax (signed), pairs
	VPMADDWD Y13, Y6, Y6
	VPSRLQ $32, Y6, Y7
	VPAND Y15, Y6, Y6
	VPADDQ Y6, Y11, Y11
	VPADDQ Y7, Y11, Y11
	VPMADDUBSW Y1, Y3, Y6       // nzI (unsigned) · peMax (signed), pairs
	VPMADDWD Y13, Y6, Y6
	VPSRLQ $32, Y6, Y7
	VPAND Y15, Y6, Y6
	VPADDQ Y6, Y12, Y12
	VPADDQ Y7, Y12, Y12
	VPAND Y14, Y1, Y6           // even windows: [E0 E1 | E2 E3]
	VPSRLW $8, Y1, Y7           // odd windows:  [O0 O1 | O2 O3]
	VPUNPCKLQDQ Y7, Y6, Y2      // [E0 O0 | E2 O2]
	VPUNPCKHQDQ Y7, Y6, Y3      // [E1 O1 | E3 O3]
	VPERM2I128 $0x20, Y3, Y2, Y6
	VPERM2I128 $0x31, Y3, Y2, Y7
	VPADDQ (DX), Y6, Y6
	VPADDQ 32(DX), Y7, Y7
	VMOVDQU Y6, (DX)
	VMOVDQU Y7, 32(DX)
	ADDQ $32, SI
	ADDQ $64, DX
	DECQ R8
	JNZ block

done:
	// Fold the 64-bit fields two sums at a time: [E0+E1 I0+I1 | E2+E3
	// I2+I3], then the halves, stored to the adjacent results.
	VPUNPCKLQDQ Y9, Y8, Y6
	VPUNPCKHQDQ Y9, Y8, Y7
	VPADDQ Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPADDQ X7, X6, X6
	VMOVDQU X6, costE+136(FP)   // costE, costI
	VPUNPCKLQDQ Y11, Y10, Y6
	VPUNPCKHQDQ Y11, Y10, Y7
	VPADDQ Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPADDQ X7, X6, X6
	VMOVDQU X6, maxSum+152(FP)  // maxSum, dotE
	VEXTRACTI128 $1, Y12, X7
	VPADDQ X7, X12, X12
	VPSHUFD $0x4e, X12, X7
	VPADDQ X7, X12, X12
	VMOVQ X12, dotI+168(FP)
	MOVQ R12, nEff+176(FP)
	VZEROUPPER
	RET

bad:
	MOVQ $0, costE+136(FP)
	MOVQ $0, costI+144(FP)
	MOVQ $0, maxSum+152(FP)
	MOVQ $0, dotE+160(FP)
	MOVQ $0, dotI+168(FP)
	MOVQ $-1, nEff+176(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
