package tensor

// polar4 multiplies the n pairs (uv[2i], uv[2i+1]) by f = sqrt(-2·log(s[i])/s[i]),
// four pairs per step; n is a positive multiple of four and every s[i] is
// in (0, 1). Its log repeats math.Log's amd64 assembly operation for
// operation, so each value rounds as NormFloat64 does.
//
//go:noescape
func polar4(n int, uv *float64, s *float64)

// polarConsts holds polar4's constants, each in four lanes, so row i is
// at byte offset 32·i in norm_amd64.s: the masks and exponent bias that
// split s into f1·2^k, then the constants of $GOROOT/src/math/log_amd64.s.
var polarConsts = func() (c [17][4]uint64) {
	for i, v := range [...]uint64{
		0x000FFFFFFFFFFFFF, 0x3FE0000000000000, 0x4330000000000000, 0x43300000000003FE, // mantissa mask, 0.5, 2^52, 2^52+1022
		0x3FE6A09E667F3BCD, 0x3FF0000000000000, 0x4000000000000000, 0xC000000000000000, // Sqrt2/2, 1, 2, -2
		0x3FE62E42FEE00000, 0x3DEA39EF35793C76, // Ln2Hi, Ln2Lo
		0x3FE5555555555593, 0x3FD999999997FA04, 0x3FD2492494229359, 0x3FCC71C51D8E78AF, // L1-L4
		0x3FC7466496CB03DE, 0x3FC39A09D078C69F, 0x3FC2F112DF3E5244, // L5-L7
	} {
		c[i] = [4]uint64{v, v, v, v}
	}
	return c
}()
