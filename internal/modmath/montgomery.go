package modmath

import (
	"math/big"
	"math/bits"
)

// Montgomery arithmetic for one odd modulus M of n words (DESIGN.md §11).
// With R = 2^(n·W), a residue of x is the n-word value x·R mod M, kept in
// [0, M) at all times. A product of two residues is the full 2n-word
// big.Int.Mul (Karatsuba, or basicSqr for squares, both over math/big's
// assembly) followed by a word-by-word REDC over math/big's assembly
// addMulVVW, in place of the schoolbook long division of big.Int.Mod.
// REDC of t < M·R returns t·R⁻¹ mod M in [0, 2M); one conditional subVV
// brings it to [0, M). Every residue, and so the value leaving the
// domain, is the unique canonical representative: the kernel's results
// stay byte-identical to big.Int.Exp.

// negInv returns −m⁻¹ mod 2^W for odd m by Newton iteration: each step
// doubles the number of correct low bits, and m is its own inverse
// mod 8.
func negInv(m big.Word) big.Word {
	inv := m
	for good := 3; good < bits.UintSize; good *= 2 {
		inv *= 2 - m*inv
	}
	return -inv
}

// montScratch is the work area of one chain of Montgomery products under
// one Ctx. Each Exp, Tables.Product, table build or FixedBase.Exp call
// owns one, so the Ctx itself stays immutable and safe for concurrent
// use.
type montScratch struct {
	c    *Ctx
	x, y big.Int    // views of the operands, for big.Int.Mul
	prod big.Int    // product buffer; keeps its capacity across products
	t    []big.Word // 2n-word REDC input
	// products counts mul calls, for the clock-free tests of the
	// fixed-base comb and the selection shapes.
	products int
}

func (c *Ctx) newScratch() *montScratch {
	return &montScratch{c: c, t: make([]big.Word, 2*len(c.mw))}
}

// mul sets z = x·y·R⁻¹ mod M for n-word residues x, y in [0, M). z may
// alias x or y; passing the same slice as x and y takes the squaring
// path.
func (s *montScratch) mul(z, x, y []big.Word) {
	s.products++
	s.x.SetBits(x)
	if &x[0] == &y[0] {
		s.prod.Mul(&s.x, &s.x)
	} else {
		s.y.SetBits(y)
		s.prod.Mul(&s.x, &s.y)
	}
	p := s.prod.Bits()
	copy(s.t, p)
	clear(s.t[len(p):])
	s.redc(z)
}

// redc sets z = t·R⁻¹ mod M for the 2n-word t < M·R held in s.t, which
// it overwrites. Step i adds q·M·2^(i·W) with q chosen so word i becomes
// zero; after n steps t is divisible by R and t/R < 2M sits in the upper
// half plus one carry word.
func (s *montScratch) redc(z []big.Word) {
	m, k0, t := s.c.mw, s.c.k0, s.t
	n := len(m)
	var top big.Word // carry out of word i+n, owed to word i+n+1
	for i := 0; i < n; i++ {
		c := addMulVVW(t[i:i+n], m, t[i]*k0)
		sum, carry := bits.Add(uint(t[i+n]), uint(c), uint(top))
		t[i+n], top = big.Word(sum), big.Word(carry)
	}
	u := t[n:]
	if top != 0 || !less(u, m) {
		subVV(z, u, m)
	} else {
		copy(z, u)
	}
}

// less reports x < y for equal-length little-endian word slices.
func less(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// enter sets z to the residue b·R mod M of any integer b and reports
// whether it is nonzero (b ≢ 0 mod M; R is invertible mod odd M).
func (s *montScratch) enter(z []big.Word, b *big.Int) bool {
	v := s.prod.Lsh(b, uint(len(z)*bits.UintSize))
	v.Mod(v, s.c.M)
	w := v.Bits()
	copy(z, w)
	clear(z[len(w):])
	return len(w) > 0
}

// leave returns the canonical value x·R⁻¹ mod M of residue x as a fresh
// big.Int.
func (s *montScratch) leave(x []big.Word) *big.Int {
	n := len(x)
	copy(s.t, x)
	clear(s.t[n:])
	z := make([]big.Word, n)
	s.redc(z)
	return new(big.Int).SetBits(z)
}
