//go:build !amd64

package tensor

const (
	useAVX2   = false
	useAVX512 = false
)

func tile4x8(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool) {
	panic("tensor: tile4x8 needs amd64")
}

func tile4x16(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool) {
	panic("tensor: tile4x16 needs amd64")
}

func tile4x4m(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool, nc, mb int) {
	panic("tensor: tile4x4m needs amd64")
}

func rows3x4m(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool, nr, nc int) {
	panic("tensor: rows3x4m needs amd64")
}
