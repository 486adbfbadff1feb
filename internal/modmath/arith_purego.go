//go:build math_big_pure_go

package modmath

import (
	"math/big"
	"math/bits"
)

// Plain-Go stand-ins for the math/big word primitives that
// arith_linkname.go reaches by linkname; math/big built with
// math_big_pure_go does not export them.

// addMulVVW sets z += x·y and returns the carry word; len(z) == len(x).
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word) {
	for i := range z {
		hi, lo := bits.Mul(uint(x[i]), uint(y))
		lo, cc := bits.Add(lo, uint(z[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(c), 0)
		hi += cc
		z[i], c = big.Word(lo), big.Word(hi)
	}
	return c
}

// subVV sets z = x − y and returns the borrow; all three have one length.
func subVV(z, x, y []big.Word) (c big.Word) {
	for i := range z {
		d, b := bits.Sub(uint(x[i]), uint(y[i]), uint(c))
		z[i], c = big.Word(d), big.Word(b)
	}
	return c
}
