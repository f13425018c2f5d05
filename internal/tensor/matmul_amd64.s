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

// func tile4x16(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool)
//
// tile4x8 on ZMM registers: Z0..Z7 hold the 4×16 tile (row r in Z(2r),
// Z(2r+1)), Z16..Z29 the B row, the broadcasts and the products. The
// operations per element are tile4x8's: VMULPD then VADDPD, never FMA.
TEXT ·tile4x16(SB), NOSPLIT, $0-65
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
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

loop16:
	VMOVUPD (DI), Z16
	VMOVUPD 64(DI), Z17
	VBROADCASTSD (SI), Z18
	VBROADCASTSD (SI)(R8*1), Z19
	VBROADCASTSD (SI)(R8*2), Z20
	VBROADCASTSD (SI)(R12*1), Z21
	VMULPD Z16, Z18, Z22
	VMULPD Z17, Z18, Z23
	VMULPD Z16, Z19, Z24
	VMULPD Z17, Z19, Z25
	VMULPD Z16, Z20, Z26
	VMULPD Z17, Z20, Z27
	VMULPD Z16, Z21, Z28
	VMULPD Z17, Z21, Z29
	VADDPD Z22, Z0, Z0
	VADDPD Z23, Z1, Z1
	VADDPD Z24, Z2, Z2
	VADDPD Z25, Z3, Z3
	VADDPD Z26, Z4, Z4
	VADDPD Z27, Z5, Z5
	VADDPD Z28, Z6, Z6
	VADDPD Z29, Z7, Z7
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ loop16

	LEAQ    (DX)(R11*2), BX
	MOVBLZX acc+64(FP), AX
	TESTQ   AX, AX
	JZ      store16
	VADDPD  (DX), Z0, Z0
	VADDPD  64(DX), Z1, Z1
	VADDPD  (DX)(R11*1), Z2, Z2
	VADDPD  64(DX)(R11*1), Z3, Z3
	VADDPD  (BX), Z4, Z4
	VADDPD  64(BX), Z5, Z5
	VADDPD  (BX)(R11*1), Z6, Z6
	VADDPD  64(BX)(R11*1), Z7, Z7

store16:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (DX)(R11*1)
	VMOVUPD Z3, 64(DX)(R11*1)
	VMOVUPD Z4, (BX)
	VMOVUPD Z5, 64(BX)
	VMOVUPD Z6, (BX)(R11*1)
	VMOVUPD Z7, 64(BX)(R11*1)
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
