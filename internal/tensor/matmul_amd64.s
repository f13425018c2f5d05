#include "textflag.h"

// func tile4x8(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool)
//
// Y0..Y7 hold the 4×8 tile (row r in Y(2r), Y(2r+1)). Each step is a
// broadcast of A(r, p), VMULPD by B row p, then VADDPD into the
// accumulator — never FMA — so every element rounds exactly like the
// scalar 4×4 tile's c += a*b.
TEXT ·tile4x8(SB), NOSPLIT, $0-65
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rsa+16(FP), R8
	MOVQ csa+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ ldb+40(FP), R10
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VBROADCASTSD (SI)(R12*1), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop

	LEAQ    (DX)(R11*2), BX
	MOVBLZX acc+64(FP), AX
	TESTQ   AX, AX
	JZ      store
	VADDPD  (DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VADDPD  (DX)(R11*1), Y2, Y2
	VADDPD  32(DX)(R11*1), Y3, Y3
	VADDPD  (BX), Y4, Y4
	VADDPD  32(BX), Y5, Y5
	VADDPD  (BX)(R11*1), Y6, Y6
	VADDPD  32(BX)(R11*1), Y7, Y7

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R11*1)
	VMOVUPD Y7, 32(BX)(R11*1)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
