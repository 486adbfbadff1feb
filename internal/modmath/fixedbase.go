package modmath

import (
	"errors"
	"math/big"
)

// fixedBaseWindow is the digit width of the fixed-base tables: 2^w − 1
// table entries per digit position, one multiplication per nonzero
// digit at evaluation time. Width 4 keeps the table for a 2048-bit
// exponent range around 2^4·2048/4 ≈ 8k entries worst case while already
// cutting evaluation to ~maxBits/4 multiplications with no squarings.
const fixedBaseWindow = 4

// FixedBase is a precomputed power table for one base under one
// modulus: Exp(e) costs at most ⌈maxBits/4⌉ modular multiplications and
// no squarings, against a full square-and-multiply ladder for a cold
// base. Build it once per (base, modulus) pair that sees many
// exponentiations — the paillier layer keys tables by (key, s) for the
// short-exponent randomness base h^{N^s}. Immutable after creation and
// safe for concurrent use.
type FixedBase struct {
	ctx     *Ctx
	g       *big.Int // reduced base (for the over-width fallback)
	maxBits int
	// tbl[i] holds the Montgomery residues of g^(j·2^{i·w}) mod M for
	// j ∈ [1, 2^w), entry j at tbl[i][(j-1)·n:][:n].
	tbl [][]big.Word
}

// NewFixedBase precomputes the table of g's powers covering exponents
// up to maxBits bits. Exponents beyond maxBits still work via a plain
// Exp fallback (counted as a table miss).
func (c *Ctx) NewFixedBase(g *big.Int, maxBits int) (*FixedBase, error) {
	if g == nil {
		return nil, errors.New("modmath: nil fixed base")
	}
	if maxBits < 1 {
		return nil, errors.New("modmath: fixed-base table needs maxBits >= 1")
	}
	const w = fixedBaseWindow
	n := len(c.mw)
	digits := (maxBits + w - 1) / w
	done := timeTableBuild(tableFixedBase, digits)
	f := &FixedBase{
		ctx:     c,
		g:       new(big.Int).Mod(g, c.M),
		maxBits: maxBits,
		tbl:     make([][]big.Word, digits),
	}
	s := c.newScratch()
	base := make([]big.Word, n) // residue of g^(2^{i·w}) for digit position i
	s.enter(base, f.g)
	for i := 0; i < digits; i++ {
		row := make([]big.Word, ((1<<w)-1)*n)
		copy(row, base)
		for off := n; off < len(row); off += n {
			s.mul(row[off:off+n], row[off-n:off], base)
		}
		f.tbl[i] = row
		// base^(2^w) = g^(2^{(i+1)·w}): top entry times base once more.
		s.mul(base, row[len(row)-n:], base)
	}
	done()
	return f, nil
}

// Exp returns g^e mod M for e ≥ 0. Exponents within the table's range
// cost one Montgomery product per nonzero base-2^w digit; wider
// exponents fall back to a cold exponentiation (a table miss in the
// kernel metrics). The result is byte-identical to Ctx.Exp(g, e).
func (f *FixedBase) Exp(e *big.Int) (*big.Int, error) {
	if e == nil || e.Sign() < 0 {
		return nil, errors.New("modmath: fixed-base exponent must be >= 0")
	}
	if e.BitLen() > f.maxBits {
		countFixedBase(false)
		return f.ctx.Exp(f.g, e), nil
	}
	countFixedBase(true)
	const w = fixedBaseWindow
	n := len(f.ctx.mw)
	s := f.ctx.newScratch()
	acc := make([]big.Word, n)
	live := false
	for i := 0; i*w < e.BitLen(); i++ {
		var digit uint
		for b := w - 1; b >= 0; b-- {
			digit = digit<<1 | uint(e.Bit(i*w+b))
		}
		if digit == 0 {
			continue
		}
		v := f.tbl[i][int(digit-1)*n:][:n]
		if live {
			s.mul(acc, acc, v)
		} else {
			copy(acc, v)
			live = true
		}
	}
	if !live {
		return big.NewInt(1), nil
	}
	return s.leave(acc), nil
}

// Base returns the (reduced) fixed base g.
func (f *FixedBase) Base() *big.Int { return f.g }

// MaxBits returns the exponent width the table covers.
func (f *FixedBase) MaxBits() int { return f.maxBits }
