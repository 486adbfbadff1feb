//go:build !math_big_pure_go

package modmath

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// The REDC inner loop is math/big's own assembly word primitives. A
// plain-Go loop over bits.Mul is no faster than the long division of
// big.Int.Mod that Montgomery reduction replaces, so the kernel's gain
// rests on these two. math/big keeps both reachable by linkname on
// purpose, with a fixed signature (go.dev/issue/67401). Under the
// math_big_pure_go build tag math/big has no assembly and does not
// export them; arith_purego.go then defines them in plain Go.

//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

//go:linkname subVV math/big.subVV
//go:noescape
func subVV(z, x, y []big.Word) (c big.Word)
