package modmath

import (
	"errors"
	"math/big"
	"math/bits"
)

// fixedBaseTableBytes bounds one comb table: 2^h entries of one modulus
// width each. It gives h = 7 rows mod a 1024-bit p², 6 mod a 2048-bit p²
// and 5 mod a 3072-bit p³ — the key holder's CRT halves at 1024- and
// 2048-bit keys.
const fixedBaseTableBytes = 16 << 10

// FixedBase is a Lim–Lee comb for one base under one modulus (Lim and
// Lee, CRYPTO '94). An exponent of up to maxBits bits is cut into h rows
// of c = ⌈maxBits/h⌉ bits; the table holds, for every h-bit mask m, the
// product of g^(2^{i·c}) over the rows i set in m, with entry 0 = 1.
// Exp(e) then walks the c columns once: one squaring and one table
// product per column, for every exponent alike — against a full
// square-and-multiply ladder for a cold base. Build it once per (base,
// modulus) pair that sees many exponentiations: the paillier layer keeps
// one per CRT half and degree for the key holder's encryption factors.
// Immutable after creation and safe for concurrent use.
type FixedBase struct {
	ctx     *Ctx
	maxBits int
	h, cols int // rows and columns of the comb, h·cols ≥ maxBits
	// tbl holds the 2^h Montgomery residues, entry m at tbl[m·n:][:n].
	tbl []big.Word
}

// combRows is the comb's row count for an n-word modulus: the largest h
// with 2^h entries inside fixedBaseTableBytes, at least 1 and at most
// maxBits.
func combRows(n, maxBits int) int {
	entryBytes := n * bits.UintSize / 8
	h := 1
	for h < maxBits && (2<<h)*entryBytes <= fixedBaseTableBytes {
		h++
	}
	return h
}

// NewFixedBase precomputes the comb of g covering exponents up to
// maxBits bits.
func (c *Ctx) NewFixedBase(g *big.Int, maxBits int) (*FixedBase, error) {
	if g == nil {
		return nil, errors.New("modmath: nil fixed base")
	}
	if maxBits < 1 {
		return nil, errors.New("modmath: fixed-base table needs maxBits >= 1")
	}
	n := len(c.mw)
	h := combRows(n, maxBits)
	done := timeTableBuild(tableFixedBase, 1<<h)
	f := &FixedBase{
		ctx:     c,
		maxBits: maxBits,
		h:       h,
		cols:    (maxBits + h - 1) / h,
		tbl:     make([]big.Word, n<<h),
	}
	s := c.newScratch()
	s.enter(f.entry(0), one)
	row := make([]big.Word, n) // residue of g^(2^{i·cols}) for row i
	s.enter(row, new(big.Int).Mod(g, c.M))
	for i := 0; i < h; i++ {
		if i > 0 {
			for j := 0; j < f.cols; j++ {
				s.mul(row, row, row)
			}
		}
		// Masks with top row i: the masks below 2^i times row i.
		for m := 1 << i; m < 2<<i; m++ {
			s.mul(f.entry(m), f.entry(m-(1<<i)), row)
		}
	}
	done()
	return f, nil
}

// entry returns table entry m.
func (f *FixedBase) entry(m int) []big.Word {
	n := len(f.ctx.mw)
	return f.tbl[m*n : (m+1)*n : (m+1)*n]
}

// Exp returns g^e mod M for 0 ≤ e < 2^maxBits, at the same
// 2·(cols−1) Montgomery products whatever e's value. The result is
// byte-identical to big.Int.Exp. It panics on a negative or over-width
// exponent, as Ctx.Exp does on a negative one.
func (f *FixedBase) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > f.maxBits {
		panic("modmath: fixed-base exponent outside [0, 2^maxBits)")
	}
	mFixedHit.Inc()
	s := f.ctx.newScratch()
	return s.leave(f.comb(s, e))
}

// comb evaluates the comb for an in-range e into a fresh residue: the
// top column's entry, then a squaring and a table product for each
// column below it. Entry 0 is 1, so a zero column still costs its
// product.
func (f *FixedBase) comb(s *montScratch, e *big.Int) []big.Word {
	acc := make([]big.Word, len(f.ctx.mw))
	copy(acc, f.entry(f.column(e, f.cols-1)))
	for j := f.cols - 2; j >= 0; j-- {
		s.mul(acc, acc, acc)
		s.mul(acc, acc, f.entry(f.column(e, j)))
	}
	return acc
}

// column gathers bit j of every row of e into a mask, row i at bit i.
func (f *FixedBase) column(e *big.Int, j int) int {
	m := 0
	for i := f.h - 1; i >= 0; i-- {
		m = m<<1 | int(e.Bit(i*f.cols+j))
	}
	return m
}
