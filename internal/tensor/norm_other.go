//go:build !amd64

package tensor

func polar4(n int, uv *float64, s *float64) {
	panic("tensor: polar4 needs amd64")
}
