package tensor

// useAVX2 selects the assembly 4×8 tile in gemmNN and gemmTA. It is set
// once from CPUID/XGETBV, so a CPU or OS without AVX state support runs the
// scalar tiles instead of faulting; tests toggle it to compare the paths.
var useAVX2 = hasAVX2()

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

// tile4x8 computes the 4×8 block C = A·B over kc steps, where A(r, p) is
// a[r·rsa + p·csa] and B(p, j) is b[p·ldb + j]; with acc it adds the block
// into c instead of storing it. Each element's sum runs p ascending from
// zero with separately rounded multiply and add, as in the scalar tile.
//
//go:noescape
func tile4x8(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32
