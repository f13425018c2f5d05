//go:build !amd64

package tensor

const useAVX2 = false

func tile4x8(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int, acc bool) {
	panic("tensor: tile4x8 needs amd64")
}
