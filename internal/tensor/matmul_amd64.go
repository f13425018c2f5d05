package tensor

// useAVX2 selects the assembly 4×8 tile and the masked column and row
// kernels in gemmNN and gemmTA, and the optimiser step kernels; useAVX512
// selects the 4×16 tile. Both are set once from CPUID/XGETBV, so a CPU or OS
// without the vector state runs the scalar code instead of faulting; tests
// toggle them to compare the paths.
var (
	useAVX2   = hasAVX2()
	useAVX512 = useAVX2 && hasAVX512F()
)

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf < 7 || ecx&osxsave == 0 || ecx&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// hasAVX512F reports AVX512F (CPUID leaf 7 EBX bit 16) with the OS saving
// the opmask, upper-ZMM and ZMM16–31 state (XCR0 bits 5–7) besides SSE and
// AVX (bits 1–2). Only call it once hasAVX2 holds: that checked OSXSAVE and
// leaf 7.
func hasAVX512F() bool {
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && xgetbv()&0xE6 == 0xE6
}

// tile4x8 computes the 4×8 block C = A·B over kc steps, where A(r, p) is
// a[r·rsa + p·csa] and B(p, j) is b[p·ldb + j]; with acc it adds the block
// into c instead of storing it. Each element's sum runs p ascending from
// zero with separately rounded multiply and add, as in the scalar tile.
//
//go:noescape
func tile4x8(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool)

// tile4x16 is tile4x8 for a 4×16 block, on AVX-512 registers.
//
//go:noescape
func tile4x16(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool)

// tile4x4m is tile4x8 for mb 4×nc blocks stacked down the rows, 1 ≤ nc ≤ 4:
// block q is rows 4q..4q+3 of A and C against the same kc rows of B. Its
// loads and stores are masked to the nc columns, so it reads and writes
// nothing past them.
//
//go:noescape
func tile4x4m(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool, nc, mb int)

// rows3x4m computes the nr×nc block, 1 ≤ nr ≤ 3 and 1 ≤ nc ≤ 4, the way the
// scalar row loop does: each element starts from C with acc (from zero
// without) and adds A(r, p)·B(p, j) in p order, so on a later panel it
// chains from C rather than adding a panel sum to it. Masked like tile4x4m.
//
//go:noescape
func rows3x4m(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool, nr, nc int)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32
