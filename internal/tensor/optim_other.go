//go:build !amd64

package tensor

func sgd4(n int, p, v, grad *float64, lr, mom float64) {
	panic("tensor: sgd4 needs amd64")
}

func adam4(n int, p, m, v, grad *float64, beta1, c1, beta2, c2, step, invB2c, eps float64) {
	panic("tensor: adam4 needs amd64")
}

func rmsprop4(n int, p, c, grad *float64, rho, c1, lr, eps float64) {
	panic("tensor: rmsprop4 needs amd64")
}
