#include "textflag.h"

// func foldAVX2(plane []uint8, lanes []int, valid *blockMask, f *blockFold)
//
// Folds one 32-window block of every listed lane: lane offset off reads
// the 32 bytes at &plane[0]+off, masked by valid. Y1 keeps the per-window
// max, Y2 the per-window nonzero count (min(c, 1) summed) and Y3 the cost
// sum in four 64-bit fields (VPSADBW against zero sums 8 bytes a field).
TEXT ·foldAVX2(SB), NOSPLIT, $0-64
	MOVQ plane_base+0(FP), SI
	MOVQ lanes_base+24(FP), DI
	MOVQ lanes_len+32(FP), CX
	MOVQ valid+48(FP), AX
	MOVQ f+56(FP), DX
	VMOVDQU (AX), Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPCMPEQB Y5, Y5, Y5
	VPABSB Y5, Y5
	TESTQ CX, CX
	JZ done

loop:
	MOVQ (DI), BX
	VPAND (SI)(BX*1), Y0, Y6
	VPMAXUB Y6, Y1, Y1
	VPMINUB Y5, Y6, Y7
	VPADDB Y7, Y2, Y2
	VPSADBW Y4, Y6, Y7
	VPADDQ Y7, Y3, Y3
	ADDQ $8, DI
	DECQ CX
	JNZ loop

done:
	VMOVDQU Y1, 0(DX)
	VMOVDQU Y2, 32(DX)
	VEXTRACTI128 $1, Y3, X6
	VPADDQ X6, X3, X3
	VPSHUFD $0x4e, X3, X6
	VPADDQ X6, X3, X3
	VMOVQ X3, 64(DX)
	VZEROUPPER
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
