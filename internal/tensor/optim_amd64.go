package tensor

// The AVX2 optimiser kernels update the first n elements (n a positive
// multiple of four) of slices that are at least that long, four lanes at a
// time. Each is the Go loop of its caller in optim.go, step for step.

//go:noescape
func sgd4(n int, p, v, grad *float64, lr, mom float64)

//go:noescape
func adam4(n int, p, m, v, grad *float64, beta1, c1, beta2, c2, step, invB2c, eps float64)

//go:noescape
func rmsprop4(n int, p, c, grad *float64, rho, c1, lr, eps float64)
