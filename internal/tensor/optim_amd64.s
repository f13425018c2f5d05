#include "textflag.h"

// Operand order follows Go's: VSUBPD Y1, Y0, Y0 is Y0 = Y0 − Y1 and
// VDIVPD Y1, Y0, Y0 is Y0 = Y0 / Y1. AX counts elements.

// func sgd4(n int, p, v, grad *float64, lr, mom float64)
//
// v = mom·v − lr·g; p = p + v.
TEXT ·sgd4(SB), NOSPLIT, $0-48
	MOVQ         n+0(FP), CX
	MOVQ         p+8(FP), DI
	MOVQ         v+16(FP), SI
	MOVQ         grad+24(FP), BX
	VBROADCASTSD lr+32(FP), Y8
	VBROADCASTSD mom+40(FP), Y9
	XORQ         AX, AX

sgdloop:
	VMULPD  (SI)(AX*8), Y9, Y0
	VMULPD  (BX)(AX*8), Y8, Y1
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     sgdloop
	VZEROUPPER
	RET

// func adam4(n int, p, m, v, grad *float64, beta1, c1, beta2, c2, step, invB2c, eps float64)
//
// m = β1·m + c1·g; v = β2·v + (c2·g)·g; p = p − (step·m) / (√(v·invB2c) + eps).
TEXT ·adam4(SB), NOSPLIT, $0-96
	MOVQ         n+0(FP), CX
	MOVQ         p+8(FP), DI
	MOVQ         m+16(FP), SI
	MOVQ         v+24(FP), DX
	MOVQ         grad+32(FP), BX
	VBROADCASTSD beta1+40(FP), Y8
	VBROADCASTSD c1+48(FP), Y9
	VBROADCASTSD beta2+56(FP), Y10
	VBROADCASTSD c2+64(FP), Y11
	VBROADCASTSD step+72(FP), Y12
	VBROADCASTSD invB2c+80(FP), Y13
	VBROADCASTSD eps+88(FP), Y14
	XORQ         AX, AX

adamloop:
	VMOVUPD (BX)(AX*8), Y0
	VMULPD  (SI)(AX*8), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMULPD  (DX)(AX*8), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y3, (DX)(AX*8)
	VMULPD  Y1, Y12, Y1
	VMULPD  Y3, Y13, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y14, Y3, Y3
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     adamloop
	VZEROUPPER
	RET

// func rmsprop4(n int, p, c, grad *float64, rho, c1, lr, eps float64)
//
// c = ρ·c + (c1·g)·g; p = p − (lr·g) / (√c + eps).
TEXT ·rmsprop4(SB), NOSPLIT, $0-64
	MOVQ         n+0(FP), CX
	MOVQ         p+8(FP), DI
	MOVQ         c+16(FP), SI
	MOVQ         grad+24(FP), BX
	VBROADCASTSD rho+32(FP), Y8
	VBROADCASTSD c1+40(FP), Y9
	VBROADCASTSD lr+48(FP), Y10
	VBROADCASTSD eps+56(FP), Y11
	XORQ         AX, AX

rmsloop:
	VMOVUPD (BX)(AX*8), Y0
	VMULPD  (SI)(AX*8), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	VMULPD  Y0, Y10, Y3
	VSQRTPD Y1, Y1
	VADDPD  Y11, Y1, Y1
	VDIVPD  Y1, Y3, Y3
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     rmsloop
	VZEROUPPER
	RET
