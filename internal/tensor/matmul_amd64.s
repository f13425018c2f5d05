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

// colMask<>+32-8·nc is a YMM mask whose lanes 0..nc-1 are set, for the
// masked kernels below (1 ≤ nc ≤ 4).
DATA colMask<>+0(SB)/8, $-1
DATA colMask<>+8(SB)/8, $-1
DATA colMask<>+16(SB)/8, $-1
DATA colMask<>+24(SB)/8, $-1
DATA colMask<>+32(SB)/8, $0
DATA colMask<>+40(SB)/8, $0
DATA colMask<>+48(SB)/8, $0
DATA colMask<>+56(SB)/8, $0
GLOBL colMask<>(SB), RODATA|NOPTR, $64

// func tile4x4m(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool, nc, mb int)
//
// tile4x8 for mb 4×nc blocks stacked down the rows, nc ≤ 4: block q takes
// rows 4q..4q+3 of A and C against the same kc rows of B. Y0..Y3 hold the
// block's rows 0..3. Every load of B and C and every store to C goes
// through VMASKMOVPD with lanes nc..3 off, so no element past column nc-1
// is read or written. Per element it is tile4x8: a sum from +0, p
// ascending, VMULPD then VADDPD, stored on the first panel and added into C
// on later ones.
TEXT ·tile4x4m(SB), NOSPLIT, $0-88
	MOVQ a+8(FP), R13
	MOVQ rsa+16(FP), R8
	MOVQ csa+24(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R11
	MOVQ nc+72(FP), AX
	MOVQ mb+80(FP), R14
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12
	LEAQ colMask<>+32(SB), BX
	SHLQ $3, AX
	SUBQ AX, BX
	VMOVUPD (BX), Y15

block4m:
	MOVQ   kc+0(FP), CX
	MOVQ   b+32(FP), DI
	MOVQ   R13, SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop4m:
	VMASKMOVPD   (DI), Y15, Y8
	VBROADCASTSD (SI), Y9
	VBROADCASTSD (SI)(R8*1), Y10
	VBROADCASTSD (SI)(R8*2), Y11
	VBROADCASTSD (SI)(R12*1), Y12
	VMULPD       Y8, Y9, Y9
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	ADDQ         R9, SI
	ADDQ         R10, DI
	DECQ         CX
	JNZ          loop4m

	LEAQ       (DX)(R11*2), BX
	MOVBLZX    acc+64(FP), AX
	TESTQ      AX, AX
	JZ         store4m
	VMASKMOVPD (DX), Y15, Y8
	VMASKMOVPD (DX)(R11*1), Y15, Y9
	VMASKMOVPD (BX), Y15, Y10
	VMASKMOVPD (BX)(R11*1), Y15, Y11
	VADDPD     Y8, Y0, Y0
	VADDPD     Y9, Y1, Y1
	VADDPD     Y10, Y2, Y2
	VADDPD     Y11, Y3, Y3

store4m:
	VMASKMOVPD Y0, Y15, (DX)
	VMASKMOVPD Y1, Y15, (DX)(R11*1)
	VMASKMOVPD Y2, Y15, (BX)
	VMASKMOVPD Y3, Y15, (BX)(R11*1)
	LEAQ       (R13)(R8*4), R13
	LEAQ       (DX)(R11*4), DX
	DECQ       R14
	JNZ        block4m
	VZEROUPPER
	RET

// func rows3x4m(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool, nr, nc int)
//
// The scalar row loop for an nr×nc block, nr ≤ 3 and nc ≤ 4, masked as in
// tile4x4m. Y0..Y2 hold rows 0..2 and start from C with acc, from +0
// without; each step adds A(r, p)·B(p, j) into them, VMULPD then VADDPD, and
// C is stored once at the end. So on a later panel an element chains from
// C, (C + a₀b₀) + a₁b₁ …, as the scalar loop does, where a tile adds its
// panel sum to C. A row past nr reads row 0 of A and is neither loaded from
// nor stored to C.
TEXT ·rows3x4m(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rsa+16(FP), R8
	MOVQ csa+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ ldb+40(FP), R10
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R11
	MOVQ nr+72(FP), R14
	MOVQ nc+80(FP), AX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ colMask<>+32(SB), BX
	SHLQ $3, AX
	SUBQ AX, BX
	VMOVUPD (BX), Y15
	LEAQ    (DX)(R11*1), BX
	LEAQ    (DX)(R11*2), R11
	XORQ    R12, R12
	XORQ    R13, R13
	CMPQ    R14, $2
	JLT     rows
	MOVQ    R8, R12
	CMPQ    R14, $3
	JLT     rows
	LEAQ    (R8)(R8*1), R13

rows:
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	MOVBLZX acc+64(FP), AX
	TESTQ   AX, AX
	JZ      loop3m
	VMASKMOVPD (DX), Y15, Y0
	CMPQ       R14, $2
	JLT        loop3m
	VMASKMOVPD (BX), Y15, Y1
	CMPQ       R14, $3
	JLT        loop3m
	VMASKMOVPD (R11), Y15, Y2

loop3m:
	VMASKMOVPD   (DI), Y15, Y8
	VBROADCASTSD (SI), Y9
	VBROADCASTSD (SI)(R12*1), Y10
	VBROADCASTSD (SI)(R13*1), Y11
	VMULPD       Y8, Y9, Y9
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	ADDQ         R9, SI
	ADDQ         R10, DI
	DECQ         CX
	JNZ          loop3m

	VMASKMOVPD Y0, Y15, (DX)
	CMPQ       R14, $2
	JLT        done3m
	VMASKMOVPD Y1, Y15, (BX)
	CMPQ       R14, $3
	JLT        done3m
	VMASKMOVPD Y2, Y15, (R11)

done3m:
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
