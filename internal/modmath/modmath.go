// Package modmath is the modular-exponentiation kernel under the
// homomorphic pipeline (DESIGN.md §11). Every hot path of the protocol —
// encryption randomness r^{N^s}, the ⊙ dot products and ⨂ selections of
// the LSP, threshold share combination — bottoms out in modular
// exponentiation over a handful of fixed moduli (N^{s+1} for s ∈ {1,2},
// and p^{s+1}, q^{s+1} for the key holder), so this package trades per-call generality for per-modulus and
// per-base precomputation:
//
//   - Ctx: a per-modulus context caching the odd modulus and its
//     Montgomery constants so repeated operations share them (the
//     paillier keys hold one Ctx per power of N, built once per key).
//   - MultiExp: Straus/interleaved multi-exponentiation
//     Π bases[i]^{exps[i]} mod M with one shared squaring chain across
//     all terms — the ⊙/⨂/combine replacement for per-term Exp loops.
//     Exp is the same chain with one term.
//   - FixedBase: a Lim–Lee comb with a precomputed table, for bases
//     reused across many exponentiations: the key holder's encryption
//     factors, one generator per CRT half. Every exponent costs the same
//     number of products.
//
// All three multiply Montgomery residues and reduce with REDC over
// math/big's assembly word primitives (montgomery.go,
// arith_linkname.go) instead of dividing by M.
//
// Exactness contract: every routine returns exactly the canonical
// representative in [0, M) that the equivalent big.Int.Exp composition
// would return. Results are byte-identical to the reference loops by
// construction (the group element is unique mod M), which is what lets
// the paillier layer swap loops for kernel calls without changing a
// single ciphertext byte. The kernel is NOT constant-time — no more and
// no less than math/big itself (see SECURITY.md).
package modmath

import (
	"errors"
	"math/big"
)

var one = big.NewInt(1)

// Ctx is an arithmetic context for one odd modulus. It is immutable
// after creation and safe for concurrent use. The modulus M must not be
// mutated by callers.
type Ctx struct {
	// M is the modulus. Callers may read it freely (the paillier layer
	// uses Ctx as its N^s cache), but must never mutate it.
	M *big.Int

	mw []big.Word // M's words, little-endian: n = len(mw), R = 2^(n·W)
	k0 big.Word   // −M⁻¹ mod 2^W, the REDC multiplier
}

// NewCtx builds a context for an odd modulus m > 1; every modulus of
// the protocol is a power of N, p or q. The context aliases m; callers
// must not mutate it afterwards.
func NewCtx(m *big.Int) (*Ctx, error) {
	if m == nil || m.Cmp(one) <= 0 {
		return nil, errors.New("modmath: modulus must be > 1")
	}
	if m.Bit(0) == 0 {
		return nil, errors.New("modmath: modulus must be odd")
	}
	mw := m.Bits()
	return &Ctx{M: m, mw: mw, k0: negInv(mw[0])}, nil
}

// MustCtx is NewCtx for moduli known valid at construction time.
func MustCtx(m *big.Int) *Ctx {
	c, err := NewCtx(m)
	if err != nil {
		panic(err)
	}
	return c
}

// Exp returns base^e mod M for e ≥ 0; it panics on a negative exponent.
// It is MultiExp's chain with one term, and returns the value
// big.Int.Exp would.
func (c *Ctx) Exp(base, e *big.Int) *big.Int {
	switch e.Sign() {
	case -1:
		panic("modmath: negative exponent")
	case 0:
		return big.NewInt(1)
	}
	return c.straus([]term{{base: base, exp: e}}, e.BitLen())
}

// windowWidth picks the Straus window width for the given maximum
// exponent bit length, clamped so the per-base odd-power tables
// (2^{w-1} entries each) stay small for wide products.
func windowWidth(maxBits, terms int) uint {
	var w uint
	switch {
	case maxBits <= 8:
		w = 2
	case maxBits <= 64:
		w = 3
	case maxBits <= 256:
		w = 4
	case maxBits <= 1024:
		w = 5
	default:
		w = 6
	}
	// Bound total table memory: terms · 2^{w-1} entries ≤ 4096.
	for w > 2 && terms<<(w-1) > 4096 {
		w--
	}
	return w
}

// window is one sliding-window digit of an exponent: an odd value val
// whose least-significant bit sits at bit position pos.
type window struct {
	pos int
	val uint
}

// slideWindows decomposes e (> 0) into left-to-right sliding windows of
// width ≤ w: e = Σ val_i · 2^{pos_i} with every val_i odd.
func slideWindows(e *big.Int, w uint, dst []window) []window {
	i := e.BitLen() - 1
	for i >= 0 {
		if e.Bit(i) == 0 {
			i--
			continue
		}
		l := i - int(w) + 1
		if l < 0 {
			l = 0
		}
		for e.Bit(l) == 0 {
			l++
		}
		var val uint
		for j := i; j >= l; j-- {
			val = val<<1 | uint(e.Bit(j))
		}
		dst = append(dst, window{pos: l, val: val})
		i = l - 1
	}
	return dst
}

// term is one live factor base^exp of a product, exp > 0.
type term struct {
	base *big.Int
	exp  *big.Int
}

// MultiExp computes Π bases[i]^{exps[i]} mod M via Straus' interleaved
// sliding-window method: one shared squaring chain over the longest
// exponent plus per-term window multiplications, instead of a full
// square-and-multiply ladder per term. All exponents must be ≥ 0
// (callers reduce negatives into [0, group order) first — paillier does,
// mod N^s). Terms with a zero exponent contribute 1 and are skipped.
//
// The result is exactly the canonical product in [0, M): byte-identical
// to multiplying the big.Int.Exp of every term.
func (c *Ctx) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("modmath: multiexp length mismatch")
	}
	// Collect live terms (nonzero exponent) and the squaring-chain length.
	terms := make([]term, 0, len(bases))
	maxBits := 0
	for i := range bases {
		e := exps[i]
		if e == nil || bases[i] == nil {
			return nil, errors.New("modmath: nil multiexp element")
		}
		if e.Sign() < 0 {
			return nil, errors.New("modmath: negative multiexp exponent")
		}
		if e.Sign() == 0 {
			continue
		}
		terms = append(terms, term{base: bases[i], exp: e})
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	observeMultiExp(len(terms))
	if len(terms) == 0 {
		return big.NewInt(1), nil
	}
	return c.straus(terms, maxBits), nil
}

// straus is the chain under Exp and MultiExp, on Montgomery residues
// (montgomery.go): every base enters the domain once, every table entry,
// square and window product is a Montgomery product, and the result
// leaves through one REDC. maxBits is the longest exponent's bit length.
func (c *Ctx) straus(terms []term, maxBits int) *big.Int {
	n := len(c.mw)
	s := c.newScratch()
	w := windowWidth(maxBits, len(terms))
	halfTbl := 1 << (w - 1) // odd powers b^1, b^3, …, b^{2^w-1}

	// Per-term odd-power tables, entry j of term t at
	// tbl[(t·halfTbl+j)·n:][:n], and window decompositions. A base that
	// reduces to zero zeroes the whole product (its exponent is > 0).
	buildDone := timeTableBuild(tableWindow, len(terms))
	tbl := make([]big.Word, len(terms)*halfTbl*n)
	entry := func(t, j int) []big.Word {
		off := (t*halfTbl + j) * n
		return tbl[off : off+n : off+n]
	}
	wins := make([][]window, len(terms))
	b2 := make([]big.Word, n)
	for t, tm := range terms {
		if !s.enter(entry(t, 0), tm.base) {
			return new(big.Int)
		}
		if halfTbl > 1 {
			s.mul(b2, entry(t, 0), entry(t, 0))
			for j := 1; j < halfTbl; j++ {
				s.mul(entry(t, j), entry(t, j-1), b2)
			}
		}
		wins[t] = slideWindows(tm.exp, w, nil)
	}
	buildDone()

	// Shared left-to-right chain: square once per bit level, multiply in
	// every window whose low end sits at that level. next[t] tracks the
	// first unconsumed window of term t (windows are MSB-first).
	acc := make([]big.Word, n)
	live := false // acc holds a value (skip squarings of the implicit 1)
	next := make([]int, len(terms))
	for p := maxBits - 1; p >= 0; p-- {
		if live {
			s.mul(acc, acc, acc)
		}
		for t := range terms {
			if next[t] < len(wins[t]) && wins[t][next[t]].pos == p {
				v := entry(t, int(wins[t][next[t]].val>>1))
				if live {
					s.mul(acc, acc, v)
				} else {
					copy(acc, v)
					live = true
				}
				next[t]++
			}
		}
	}
	return s.leave(acc)
}

// MultiExpRef is the reference implementation MultiExp is measured and
// fuzzed against: the plain per-term big.Int.Exp product loop the kernel
// replaced. It stays exported so the fuzz target and the unit tests of
// both packages compare against the same oracle.
func (c *Ctx) MultiExpRef(bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("modmath: multiexp length mismatch")
	}
	acc := new(big.Int).Mod(one, c.M)
	tmp := new(big.Int)
	for i := range bases {
		if exps[i] == nil || bases[i] == nil {
			return nil, errors.New("modmath: nil multiexp element")
		}
		if exps[i].Sign() < 0 {
			return nil, errors.New("modmath: negative multiexp exponent")
		}
		if exps[i].Sign() == 0 {
			continue
		}
		tmp.Exp(bases[i], exps[i], c.M)
		acc.Mul(acc, tmp)
		acc.Mod(acc, c.M)
	}
	return acc, nil
}
