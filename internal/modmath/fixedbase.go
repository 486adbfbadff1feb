package modmath

import (
	"errors"
	"math/big"
	"math/bits"
)

// fixedBaseTableBytes bounds the comb a base keeps for its lifetime:
// v·2^h entries of one modulus width each. The paillier layer keeps one
// per CRT half and degree of every key, so this cap is per-key live
// memory. It gives h=6, v=2 mod a 1024-bit p², h=5, v=2 mod a 2048-bit
// p² and h=4, v=2 mod a 3072-bit p³ — the key holder's CRT halves at
// 1024- and 2048-bit keys.
const fixedBaseTableBytes = 16 << 10

// keyCombUses is the number of exponentiations a long-lived comb is sized
// for. A key's comb serves thousands of factors, so at this count the
// layout with the fewest products per exponent wins and its one-off build
// only breaks ties.
const keyCombUses = 1 << 16

// FixedBase is a Lim–Lee comb with h rows and v tables for one base under
// one modulus (Lim and Lee, CRYPTO '94). An exponent of up to maxBits
// bits is cut into h rows of v·b bits, b = ⌈⌈maxBits/h⌉/v⌉, and each row
// into v blocks of b bits. Table j holds, for every h-bit mask m, the
// product of g^(2^{i·v·b + j·b}) over the rows i set in m, with entry 0
// = 1. Exp(e) then walks the b columns once: one squaring per column and
// one table product per column and table, b(v+1)−2 products for every
// exponent alike — against a full square-and-multiply ladder for a cold
// base. v = 1 is the plain comb. The paillier layer keeps one comb per
// CRT half and degree for the key holder's encryption factors and builds
// a wider one for a batch of factors when that costs fewer products in
// all (Batch). Immutable after creation and safe for concurrent use.
type FixedBase struct {
	ctx     *Ctx
	maxBits int
	combLayout
	// tbl holds v tables of 2^h Montgomery residues, entry m of table j
	// at tbl[(j·2^h + m)·n:][:n].
	tbl []big.Word
}

// combLayout is the shape of a comb: h rows, v tables and b columns per
// table, h·v·b ≥ maxBits.
type combLayout struct {
	h, v, b int
}

// layoutFor returns the comb of h rows and v tables covering maxBits
// bits.
func layoutFor(h, v, maxBits int) combLayout {
	a := (maxBits + h - 1) / h
	return combLayout{h: h, v: v, b: (a + v - 1) / v}
}

// expProducts is the Montgomery products of one Exp: b−1 squarings and
// v·b−1 table products (the first table entry is copied).
func (l combLayout) expProducts() int {
	return l.b*(l.v+1) - 2
}

// buildProducts is the Montgomery products of building the tables: b
// squarings between each of the h·v single-row entries, which lie on one
// chain g^(2^{t·b}), and one product for every entry with two or more
// rows set.
func (l combLayout) buildProducts() int {
	return (l.h*l.v-1)*l.b + l.v*(1<<l.h-l.h-1)
}

// cost is the products of building the comb and running uses
// exponentiations on it.
func (l combLayout) cost(uses int) int {
	return l.buildProducts() + uses*l.expProducts()
}

// chooseComb picks the layout that spends the fewest products on its
// build plus uses exponentiations of up to maxBits bits, among those
// whose v·2^h entries of n words fit in capBytes. The one-row, one-table
// comb always qualifies. The search is exact: it starts from the most
// rows, whose layouts are the cheapest at protocol sizes, and skips only
// layouts that cannot win, so a call costs a few microseconds.
func chooseComb(n, maxBits, uses, capBytes int) combLayout {
	entryBytes := n * bits.UintSize / 8
	hMax := 1
	for hMax < maxBits && entryBytes<<(hMax+1) <= capBytes {
		hMax++
	}
	best := layoutFor(hMax, 1, maxBits)
	for h := hMax; h >= 1; h-- {
		a := (maxBits + h - 1) / h
		for v := 1; v <= a && (v*entryBytes)<<h <= capBytes; v++ {
			// Any v tables cost at least their multi-row entries plus
			// a−1 products per exponent, a bound that grows with v: once
			// it reaches the best cost, no more tables can win.
			if v*(1<<h-h-1)+uses*(a-1) >= best.cost(uses) {
				break
			}
			if l := layoutFor(h, v, maxBits); l.cost(uses) < best.cost(uses) {
				best = l
			}
		}
	}
	return best
}

// NewFixedBase precomputes the long-lived comb of g covering exponents up
// to maxBits bits, within fixedBaseTableBytes.
func (c *Ctx) NewFixedBase(g *big.Int, maxBits int) (*FixedBase, error) {
	if g == nil {
		return nil, errors.New("modmath: nil fixed base")
	}
	if maxBits < 1 {
		return nil, errors.New("modmath: fixed-base table needs maxBits >= 1")
	}
	s := c.newScratch()
	gr := make([]big.Word, len(c.mw))
	s.enter(gr, g)
	return c.buildComb(s, gr, maxBits, chooseComb(len(c.mw), maxBits, keyCombUses, fixedBaseTableBytes)), nil
}

// Batch returns the comb that uses exponentiations of f's base are
// cheapest on: f itself, or a comb built for them within the kernel's
// windowTableBytes when its build plus uses exponentiations costs fewer
// products than uses exponentiations on f. Either gives the same values.
// A batch comb is the caller's alone and garbage once dropped; f keeps no
// reference to it.
func (f *FixedBase) Batch(uses int) *FixedBase {
	l, ok := f.batchLayout(uses)
	if !ok {
		return f
	}
	return f.ctx.buildComb(f.ctx.newScratch(), f.entry(0, 1), f.maxBits, l)
}

// batchLayout returns the layout Batch builds for uses exponentiations
// and whether it beats running them on f.
func (f *FixedBase) batchLayout(uses int) (combLayout, bool) {
	// No comb costs fewer than maxBits−1 products: its squaring chain
	// spans all but b of the exponent bits, and one exponentiation takes
	// at least 2b−2. A batch that costs no more on f needs no search.
	if uses*f.expProducts() <= f.maxBits-1 {
		return f.combLayout, false
	}
	l := chooseComb(len(f.ctx.mw), f.maxBits, uses, windowTableBytes)
	return l, l.cost(uses) < uses*f.expProducts()
}

// buildComb builds the comb of layout l for the base whose residue is g,
// counting its products on s.
func (c *Ctx) buildComb(s *montScratch, g []big.Word, maxBits int, l combLayout) *FixedBase {
	n := len(c.mw)
	done := timeTableBuild(tableFixedBase, l.v<<l.h)
	f := &FixedBase{
		ctx:        c,
		maxBits:    maxBits,
		combLayout: l,
		tbl:        make([]big.Word, (l.v*n)<<l.h),
	}
	// Single-row entries: g^(2^{(i·v+j)·b}) at row i of table j, one
	// squaring chain through all of them.
	cur := make([]big.Word, n)
	copy(cur, g)
	for i := 0; i < l.h; i++ {
		for j := 0; j < l.v; j++ {
			if i+j > 0 {
				for k := 0; k < l.b; k++ {
					s.mul(cur, cur, cur)
				}
			}
			copy(f.entry(j, 1<<i), cur)
		}
	}
	for j := 0; j < l.v; j++ {
		s.enter(f.entry(j, 0), one)
		// Masks with top row i and a lower row set: the mask without
		// row i times row i's entry.
		for i := 1; i < l.h; i++ {
			for m := 1<<i + 1; m < 2<<i; m++ {
				s.mul(f.entry(j, m), f.entry(j, m-1<<i), f.entry(j, 1<<i))
			}
		}
	}
	done()
	return f
}

// entry returns entry m of table j.
func (f *FixedBase) entry(j, m int) []big.Word {
	n := len(f.ctx.mw)
	k := j<<f.h + m
	return f.tbl[k*n : (k+1)*n : (k+1)*n]
}

// Exp returns g^e mod M for 0 ≤ e < 2^maxBits, at the same b(v+1)−2
// Montgomery products whatever e's value. The result is byte-identical
// to big.Int.Exp. It panics on a negative or over-width exponent, as
// Ctx.Exp does on a negative one.
func (f *FixedBase) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > f.maxBits {
		panic("modmath: fixed-base exponent outside [0, 2^maxBits)")
	}
	mFixedHit.Inc()
	s := f.ctx.newScratch()
	return s.leave(f.comb(s, e))
}

// comb evaluates the comb for an in-range e into a fresh residue: the
// top column's entry of the last table, then its other tables' entries,
// then for each column below a squaring and one product per table. Entry
// 0 is 1, so a zero column still costs its products.
func (f *FixedBase) comb(s *montScratch, e *big.Int) []big.Word {
	acc := make([]big.Word, len(f.ctx.mw))
	k := f.b - 1
	copy(acc, f.entry(f.v-1, f.column(e, f.v-1, k)))
	for j := f.v - 2; j >= 0; j-- {
		s.mul(acc, acc, f.entry(j, f.column(e, j, k)))
	}
	for k--; k >= 0; k-- {
		s.mul(acc, acc, acc)
		for j := f.v - 1; j >= 0; j-- {
			s.mul(acc, acc, f.entry(j, f.column(e, j, k)))
		}
	}
	return acc
}

// column gathers bit k of block j of every row of e into a mask, row i
// at bit i.
func (f *FixedBase) column(e *big.Int, j, k int) int {
	stride, off := f.v*f.b, j*f.b+k
	m := 0
	for i := f.h - 1; i >= 0; i-- {
		m = m<<1 | int(e.Bit(i*stride+off))
	}
	return m
}
