package tensor

import "fmt"

// The GEMM kernels below share one structure: the output is walked in
// mr×nr register tiles (the accumulators live in registers for the whole
// k-extent of a panel), the k dimension is cut into kcBlock panels so the
// streamed operand stays cache-resident, and the parallel driver splits the
// output rows into tile-aligned panels across goroutines. gemmParallel only
// fans out when the problem is large enough to amortise goroutine startup
// (see parallelCutover); tiny matrices always run serially on the caller's
// goroutine.
const (
	// mrTile×nrTile is the register tile: 16 independent accumulator
	// chains per inner iteration, loading 4+4 operand values.
	mrTile = 4
	nrTile = 4
	// kcBlock is the k-panel length. Nothing is packed: b is read in place
	// with row stride n, and every 4-row tile of a panel re-reads the same
	// kcBlock rows of it. The panel also fixes where partial sums are added
	// into the output, so changing it changes the result bits.
	kcBlock = 256
	// parallelCutover is the minimum multiply-add count (m·n·k) before
	// MatMulParallel and friends spawn goroutines. Below it the fork/join
	// overhead outweighs the work: a 32×32×32 product is ~33k mul-adds and
	// runs in a few microseconds, the same order as a goroutine handoff.
	parallelCutover = 1 << 17
)

// MatMul returns the matrix product a×b of two 2-D tensors using the tiled
// serial kernel. It is shorthand for MatMulParallel(a, b, 1); use
// MatMulParallel (or the *Into / *Trans* variants) to bound the kernel by a
// task's computing units or to avoid allocating the result.
func MatMul(a, b *Tensor) *Tensor {
	return MatMulParallel(a, b, 1)
}

// MatMulParallel returns a×b using up to `units` goroutines. Output rows are
// partitioned into register-tile-aligned panels among workers — this mirrors
// how a training task in the paper exploits the computing units granted by
// its @constraint (Tensorflow intra-op parallelism) — but small products
// (m·n·k < parallelCutover) run serially regardless of units so tiny
// matrices never pay the fork/join overhead. units < 1 is treated as 1.
func MatMulParallel(a, b *Tensor, units int) *Tensor {
	m, _, n := mmShape(a, b)
	return MatMulInto(New(m, n), a, b, units)
}

// MatMulInto computes dst = a×b in place, overwriting dst (which must be
// m×n), and returns dst. It performs no allocations, letting steady-state
// training steps reuse one output buffer per layer.
func MatMulInto(dst, a, b *Tensor, units int) *Tensor {
	m, k, n := mmShape(a, b)
	checkInto(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	if k == 0 {
		dst.Zero()
		return dst
	}
	ad, bd, od := a.data, b.data, dst.data
	gemmParallel(m, k, n, units, func(lo, hi int) {
		gemmNN(ad, bd, od, k, n, lo, hi)
	})
	return dst
}

// MatMulTransAInto computes dst = aᵀ×b in place (dst must be m×n for a of
// shape k×m and b of shape k×n) and returns dst, without materialising the
// transpose of a. This is the Dense/Conv2D backward weight-gradient product
// (dW = xᵀ·grad).
func MatMulTransAInto(dst, a, b *Tensor, units int) *Tensor {
	m, k, n := mmShapeTransA(a, b)
	checkInto(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	if k == 0 {
		dst.Zero()
		return dst
	}
	ad, bd, od := a.data, b.data, dst.data
	gemmParallel(m, k, n, units, func(lo, hi int) {
		gemmTA(ad, bd, od, k, m, n, lo, hi)
	})
	return dst
}

// MatMulTransBInto computes dst = a×bᵀ in place (dst must be m×n for a of
// shape m×k and b of shape n×k) and returns dst, without materialising the
// transpose of b. This is the Dense/Conv2D backward input-gradient product
// (dX = grad·Wᵀ).
func MatMulTransBInto(dst, a, b *Tensor, units int) *Tensor {
	m, k, n := mmShapeTransB(a, b)
	checkInto(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	ad, bd, od := a.data, b.data, dst.data
	gemmParallel(m, k, n, units, func(lo, hi int) {
		gemmTB(ad, bd, od, k, n, lo, hi)
	})
	return dst
}

func mmShape(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions do not match: %v × %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

func mmShapeTransA(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires 2-D tensors")
	}
	k, m = a.shape[0], a.shape[1]
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions do not match: %vᵀ × %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

func mmShapeTransB(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires 2-D tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if k != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions do not match: %v × %vᵀ", a.shape, b.shape))
	}
	return m, k, b.shape[0]
}

func checkInto(dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul*Into destination shape %v, want [%d %d]", dst.shape, m, n))
	}
}

// gemmParallel runs kernel over the output row range [0, m), split into
// register-tile-aligned panels across up to `units` goroutines. The cutover
// keeps small products serial: goroutine startup is the same order of
// magnitude as an entire small matmul.
func gemmParallel(m, k, n, units int, kernel func(lo, hi int)) {
	if units < 1 || m*n*k < parallelCutover {
		units = 1
	}
	tiles := (m + mrTile - 1) / mrTile
	if units > tiles {
		units = tiles
	}
	if units == 1 {
		kernel(0, m)
		return
	}
	chunk := (tiles + units - 1) / units * mrTile
	done := make(chan struct{}, units)
	workers := 0
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		workers++
		go func(lo, hi int) {
			kernel(lo, hi)
			done <- struct{}{}
		}(lo, hi)
	}
	for ; workers > 0; workers-- {
		<-done
	}
}

// gemmNN computes out[lo:hi, :] = a[lo:hi, :]×b for row-major a (·×k),
// b (k×n) and out (·×n). The inner kernel keeps a 4×4 accumulator tile in
// registers across a k-panel (asmTiles takes the columns the bit-identical
// assembly tiles cover first); the first panel stores (overwriting
// whatever dst held) and subsequent panels accumulate.
func gemmNN(a, b, out []float64, k, n, lo, hi int) {
	for kb := 0; kb < k; kb += kcBlock {
		kEnd := kb + kcBlock
		if kEnd > k {
			kEnd = k
		}
		first := kb == 0
		i := lo
		for ; i+mrTile <= hi; i += mrTile {
			a0 := a[(i+0)*k : (i+0)*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			j := asmTiles(kEnd-kb, &a[i*k+kb], k, 1, b[kb*n:], out[i*n:], n, !first)
			for ; j+nrTile <= n; j += nrTile {
				var c00, c01, c02, c03 float64
				var c10, c11, c12, c13 float64
				var c20, c21, c22, c23 float64
				var c30, c31, c32, c33 float64
				for p := kb; p < kEnd; p++ {
					br := b[p*n+j : p*n+j+nrTile]
					b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
					av := a0[p]
					c00 += av * b0
					c01 += av * b1
					c02 += av * b2
					c03 += av * b3
					av = a1[p]
					c10 += av * b0
					c11 += av * b1
					c12 += av * b2
					c13 += av * b3
					av = a2[p]
					c20 += av * b0
					c21 += av * b1
					c22 += av * b2
					c23 += av * b3
					av = a3[p]
					c30 += av * b0
					c31 += av * b1
					c32 += av * b2
					c33 += av * b3
				}
				o0 := out[(i+0)*n+j : (i+0)*n+j+nrTile]
				o1 := out[(i+1)*n+j : (i+1)*n+j+nrTile]
				o2 := out[(i+2)*n+j : (i+2)*n+j+nrTile]
				o3 := out[(i+3)*n+j : (i+3)*n+j+nrTile]
				if first {
					o0[0], o0[1], o0[2], o0[3] = c00, c01, c02, c03
					o1[0], o1[1], o1[2], o1[3] = c10, c11, c12, c13
					o2[0], o2[1], o2[2], o2[3] = c20, c21, c22, c23
					o3[0], o3[1], o3[2], o3[3] = c30, c31, c32, c33
				} else {
					o0[0] += c00
					o0[1] += c01
					o0[2] += c02
					o0[3] += c03
					o1[0] += c10
					o1[1] += c11
					o1[2] += c12
					o1[3] += c13
					o2[0] += c20
					o2[1] += c21
					o2[2] += c22
					o2[3] += c23
					o3[0] += c30
					o3[1] += c31
					o3[2] += c32
					o3[3] += c33
				}
			}
			for ; j < n; j++ {
				var s0, s1, s2, s3 float64
				for p := kb; p < kEnd; p++ {
					bv := b[p*n+j]
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				if first {
					out[(i+0)*n+j] = s0
					out[(i+1)*n+j] = s1
					out[(i+2)*n+j] = s2
					out[(i+3)*n+j] = s3
				} else {
					out[(i+0)*n+j] += s0
					out[(i+1)*n+j] += s1
					out[(i+2)*n+j] += s2
					out[(i+3)*n+j] += s3
				}
			}
		}
		for ; i < hi; i++ {
			arow := a[i*k : i*k+k]
			orow := out[i*n : i*n+n]
			if first {
				for j := range orow {
					orow[j] = 0
				}
			}
			for p := kb; p < kEnd; p++ {
				av := arow[p]
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// asmTiles runs the assembly tiles across one 4-row block of a k-panel:
// 4×16 tiles while useAVX512, then 4×8 tiles while useAVX2. a points at
// A(0, 0) of the block, with row stride rsa and column stride csa; b and out
// start at the panel's first row of B and the block's first output row, both
// with row stride n. It returns the first column left for the scalar tiles.
func asmTiles(kc int, a *float64, rsa, csa int, b, out []float64, n int, acc bool) int {
	j := 0
	if useAVX512 {
		for ; j+16 <= n; j += 16 {
			tile4x16(kc, a, rsa, csa, &b[j], n, &out[j], n, acc)
		}
	}
	if useAVX2 {
		for ; j+8 <= n; j += 8 {
			tile4x8(kc, a, rsa, csa, &b[j], n, &out[j], n, acc)
		}
	}
	return j
}

// gemmTA computes out[lo:hi, :] = (aᵀ×b)[lo:hi, :] for a (k×m), b (k×n) and
// out (m×n), reading both operands along their natural row-major layout —
// a[p·m+i…] and b[p·n+j…] are contiguous — so no transpose copy is needed.
// The assembly tiles take what they can as in gemmNN, reading a with column
// stride m.
func gemmTA(a, b, out []float64, k, m, n, lo, hi int) {
	for kb := 0; kb < k; kb += kcBlock {
		kEnd := kb + kcBlock
		if kEnd > k {
			kEnd = k
		}
		first := kb == 0
		i := lo
		for ; i+mrTile <= hi; i += mrTile {
			j := asmTiles(kEnd-kb, &a[kb*m+i], 1, m, b[kb*n:], out[i*n:], n, !first)
			for ; j+nrTile <= n; j += nrTile {
				var c00, c01, c02, c03 float64
				var c10, c11, c12, c13 float64
				var c20, c21, c22, c23 float64
				var c30, c31, c32, c33 float64
				for p := kb; p < kEnd; p++ {
					ar := a[p*m+i : p*m+i+mrTile]
					br := b[p*n+j : p*n+j+nrTile]
					a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
					b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
					c00 += a0 * b0
					c01 += a0 * b1
					c02 += a0 * b2
					c03 += a0 * b3
					c10 += a1 * b0
					c11 += a1 * b1
					c12 += a1 * b2
					c13 += a1 * b3
					c20 += a2 * b0
					c21 += a2 * b1
					c22 += a2 * b2
					c23 += a2 * b3
					c30 += a3 * b0
					c31 += a3 * b1
					c32 += a3 * b2
					c33 += a3 * b3
				}
				o0 := out[(i+0)*n+j : (i+0)*n+j+nrTile]
				o1 := out[(i+1)*n+j : (i+1)*n+j+nrTile]
				o2 := out[(i+2)*n+j : (i+2)*n+j+nrTile]
				o3 := out[(i+3)*n+j : (i+3)*n+j+nrTile]
				if first {
					o0[0], o0[1], o0[2], o0[3] = c00, c01, c02, c03
					o1[0], o1[1], o1[2], o1[3] = c10, c11, c12, c13
					o2[0], o2[1], o2[2], o2[3] = c20, c21, c22, c23
					o3[0], o3[1], o3[2], o3[3] = c30, c31, c32, c33
				} else {
					o0[0] += c00
					o0[1] += c01
					o0[2] += c02
					o0[3] += c03
					o1[0] += c10
					o1[1] += c11
					o1[2] += c12
					o1[3] += c13
					o2[0] += c20
					o2[1] += c21
					o2[2] += c22
					o2[3] += c23
					o3[0] += c30
					o3[1] += c31
					o3[2] += c32
					o3[3] += c33
				}
			}
			for ; j < n; j++ {
				var s0, s1, s2, s3 float64
				for p := kb; p < kEnd; p++ {
					bv := b[p*n+j]
					ar := a[p*m+i : p*m+i+mrTile]
					s0 += ar[0] * bv
					s1 += ar[1] * bv
					s2 += ar[2] * bv
					s3 += ar[3] * bv
				}
				if first {
					out[(i+0)*n+j] = s0
					out[(i+1)*n+j] = s1
					out[(i+2)*n+j] = s2
					out[(i+3)*n+j] = s3
				} else {
					out[(i+0)*n+j] += s0
					out[(i+1)*n+j] += s1
					out[(i+2)*n+j] += s2
					out[(i+3)*n+j] += s3
				}
			}
		}
		for ; i < hi; i++ {
			orow := out[i*n : i*n+n]
			if first {
				for j := range orow {
					orow[j] = 0
				}
			}
			for p := kb; p < kEnd; p++ {
				av := a[p*m+i]
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// gemmTB computes out[lo:hi, :] = (a×bᵀ)[lo:hi, :] for a (m×k), b (n×k) and
// out (m×n). Every output element is a dot product of two contiguous rows,
// so the whole k-extent accumulates in registers and no k-blocking is
// needed; the tile always stores.
func gemmTB(a, b, out []float64, k, n, lo, hi int) {
	i := lo
	for ; i+mrTile <= hi; i += mrTile {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		j := 0
		for ; j+nrTile <= n; j += nrTile {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for p := 0; p < k; p++ {
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				av := a0[p]
				c00 += av * bv0
				c01 += av * bv1
				c02 += av * bv2
				c03 += av * bv3
				av = a1[p]
				c10 += av * bv0
				c11 += av * bv1
				c12 += av * bv2
				c13 += av * bv3
				av = a2[p]
				c20 += av * bv0
				c21 += av * bv1
				c22 += av * bv2
				c23 += av * bv3
				av = a3[p]
				c30 += av * bv0
				c31 += av * bv1
				c32 += av * bv2
				c33 += av * bv3
			}
			out[(i+0)*n+j], out[(i+0)*n+j+1], out[(i+0)*n+j+2], out[(i+0)*n+j+3] = c00, c01, c02, c03
			out[(i+1)*n+j], out[(i+1)*n+j+1], out[(i+1)*n+j+2], out[(i+1)*n+j+3] = c10, c11, c12, c13
			out[(i+2)*n+j], out[(i+2)*n+j+1], out[(i+2)*n+j+2], out[(i+2)*n+j+3] = c20, c21, c22, c23
			out[(i+3)*n+j], out[(i+3)*n+j+1], out[(i+3)*n+j+2], out[(i+3)*n+j+3] = c30, c31, c32, c33
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s0, s1, s2, s3 float64
			for p, bv := range brow {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			out[(i+0)*n+j] = s0
			out[(i+1)*n+j] = s1
			out[(i+2)*n+j] = s2
			out[(i+3)*n+j] = s3
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			s := 0.0
			for p, bv := range brow {
				s += arow[p] * bv
			}
			out[i*n+j] = s
		}
	}
}
