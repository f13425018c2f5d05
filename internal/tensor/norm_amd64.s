#include "textflag.h"

// func polar4(n int, uv *float64, s *float64)
//
// Each step takes four s values and repeats math.Log's amd64 assembly
// (log_amd64.s) lane-wise: one separately rounded VMULPD, VADDPD or VSUBPD
// per scalar instruction, never FMA. s is positive and normal, so its
// special cases never apply. Then f = sqrt(-2·log(s)/s) with IEEE VDIVPD
// and VSQRTPD, spread to the pairs' lanes and multiplied into uv in place.
// R8 points at polarConsts, whose 32-byte rows the comments name.
TEXT ·polar4(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ uv+8(FP), DI
	MOVQ s+16(FP), SI
	LEAQ ·polarConsts(SB), R8

loop:
	VMOVUPD (SI), Y0 // s
	// f1, k := math.Frexp(s), k exactly (2^52 + exponent) - (2^52 + 1022)
	VANDPD  0(R8), Y0, Y2  // mantissa mask
	VORPD   32(R8), Y2, Y2 // | 0.5: f1
	VPSRLQ  $52, Y0, Y1
	VORPD   64(R8), Y1, Y1 // | 2^52
	VSUBPD  96(R8), Y1, Y1 // - (2^52 + 1022): k
	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }, the mask CMPSD's predicate 5 gives
	VCMPPD  $2, 128(R8), Y2, Y3 // f1 <= Sqrt2/2
	VANDPD  160(R8), Y3, Y3     // 0 or 1
	VSUBPD  Y3, Y1, Y1
	VADDPD  160(R8), Y3, Y3     // 1 or 2
	VMULPD  Y3, Y2, Y2
	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD  160(R8), Y2, Y2 // f
	VADDPD  192(R8), Y2, Y3
	VDIVPD  Y3, Y2, Y3      // s
	VMULPD  Y3, Y3, Y4      // s2
	VMULPD  Y4, Y4, Y5      // s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD  512(R8), Y5, Y6 // L7
	VADDPD  448(R8), Y6, Y6 // L5
	VMULPD  Y5, Y6, Y6
	VADDPD  384(R8), Y6, Y6 // L3
	VMULPD  Y5, Y6, Y6
	VADDPD  320(R8), Y6, Y6 // L1
	VMULPD  Y6, Y4, Y4      // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD  480(R8), Y5, Y6 // L6
	VADDPD  416(R8), Y6, Y6 // L4
	VMULPD  Y5, Y6, Y6
	VADDPD  352(R8), Y6, Y6 // L2
	VMULPD  Y6, Y5, Y5      // t2
	VADDPD  Y5, Y4, Y4      // R
	// hfsq := 0.5 * f * f
	VMULPD  32(R8), Y2, Y5
	VMULPD  Y2, Y5, Y5      // hfsq
	// log := k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y5, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  288(R8), Y1, Y4 // Ln2Lo
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y5, Y5
	VSUBPD  Y2, Y5, Y5
	VMULPD  256(R8), Y1, Y1 // Ln2Hi
	VSUBPD  Y5, Y1, Y1      // log(s)
	// f := sqrt(-2 * log / s), as [f0 f0 f1 f1] and [f2 f2 f3 f3]
	VMULPD  224(R8), Y1, Y1 // -2
	VDIVPD  Y0, Y1, Y1
	VSQRTPD Y1, Y1
	VPERMPD $0x50, Y1, Y2
	VPERMPD $0xFA, Y1, Y3
	VMULPD  (DI), Y2, Y2
	VMULPD  32(DI), Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $32, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	JNZ     loop
	VZEROUPPER
	RET
