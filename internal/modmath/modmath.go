// Package modmath is the modular-exponentiation kernel under the
// homomorphic pipeline (DESIGN.md §11). Every hot path of the protocol —
// encryption randomness r^{N^s}, the ⊙ dot products and ⨂ selections of
// the LSP, threshold share combination — bottoms out in modular
// exponentiation over a handful of fixed moduli (N^{s+1} for s ∈ {1,2}),
// so this package trades per-call generality for per-modulus and
// per-base precomputation:
//
//   - Ctx: a per-modulus context caching the modulus and derived state
//     so repeated operations share it instead of recomputing (the
//     paillier keys hold one Ctx per power of N, built once per key).
//   - MultiExp: Straus/interleaved multi-exponentiation
//     Π bases[i]^{exps[i]} mod M with one shared squaring chain across
//     all terms — the ⊙/⨂/combine replacement for per-term Exp loops.
//   - FixedBase: windowed fixed-base exponentiation with a precomputed
//     power table, for bases reused across many exponentiations (the
//     short-exponent encryption randomness h^x of paillier.Options).
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

// Ctx is an arithmetic context for one modulus. It is immutable after
// creation and safe for concurrent use. The modulus M must not be
// mutated by callers.
type Ctx struct {
	// M is the modulus. Callers may read it freely (the paillier layer
	// uses Ctx as its N^s cache), but must never mutate it.
	M *big.Int

	odd bool // odd moduli take big.Int.Exp's Montgomery path
}

// NewCtx builds a context for modulus m > 1. The context aliases m;
// callers must not mutate it afterwards.
func NewCtx(m *big.Int) (*Ctx, error) {
	if m == nil || m.Cmp(one) <= 0 {
		return nil, errors.New("modmath: modulus must be > 1")
	}
	return &Ctx{M: m, odd: m.Bit(0) == 1}, nil
}

// MustCtx is NewCtx for moduli known valid at construction time.
func MustCtx(m *big.Int) *Ctx {
	c, err := NewCtx(m)
	if err != nil {
		panic(err)
	}
	return c
}

// Exp returns base^e mod M for e ≥ 0. Single exponentiations delegate to
// big.Int.Exp, whose internal Montgomery/window machinery is already the
// right tool for one (base, exponent) pair; the kernel's wins come from
// sharing work across calls (MultiExp, FixedBase), not from beating
// math/big at its own game.
func (c *Ctx) Exp(base, e *big.Int) *big.Int {
	return new(big.Int).Exp(base, e, c.M)
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

// strausMinTerms is the live-term count below which MultiExp delegates
// to per-term big.Int.Exp (see the comment at the call site).
const strausMinTerms = 4

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
	type term struct {
		base *big.Int
		exp  *big.Int
	}
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
		return new(big.Int).Mod(one, c.M), nil
	}
	// Below strausMinTerms live terms the shared squaring chain cannot
	// amortize: its Mul+Mod squarings cost ~2× the Montgomery squarings
	// inside big.Int.Exp, so interleaving only pays once enough terms
	// share the chain (BenchmarkMultiExp3* vs BenchmarkMultiExp8* in
	// bench_test.go). Either path returns the identical canonical value.
	if len(terms) < strausMinTerms {
		acc := new(big.Int)
		tmp := new(big.Int)
		for i, tm := range terms {
			tmp.Exp(tm.base, tm.exp, c.M)
			if i == 0 {
				acc.Set(tmp)
				continue
			}
			acc.Mul(acc, tmp)
			acc.Mod(acc, c.M)
		}
		return acc, nil
	}

	w := windowWidth(maxBits, len(terms))
	halfTbl := 1 << (w - 1) // odd powers b^1, b^3, …, b^{2^w-1}

	// Per-term odd-power tables and window decompositions. A base that
	// reduces to zero zeroes the whole product (its exponent is > 0).
	buildDone := timeTableBuild(tableWindow, len(terms))
	tbl := make([][]*big.Int, len(terms))
	wins := make([][]window, len(terms))
	sq := new(big.Int) // scratch for products before reduction
	for t, tm := range terms {
		b := new(big.Int).Mod(tm.base, c.M)
		if b.Sign() == 0 {
			return new(big.Int), nil
		}
		tbl[t] = make([]*big.Int, halfTbl)
		tbl[t][0] = b
		if halfTbl > 1 {
			b2 := new(big.Int)
			sq.Mul(b, b)
			b2.Mod(sq, c.M)
			for j := 1; j < halfTbl; j++ {
				next := new(big.Int)
				sq.Mul(tbl[t][j-1], b2)
				next.Mod(sq, c.M)
				tbl[t][j] = next
			}
		}
		wins[t] = slideWindows(tm.exp, w, nil)
	}
	buildDone()

	// Shared left-to-right chain: square once per bit level, multiply in
	// every window whose low end sits at that level. next[t] tracks the
	// first unconsumed window of term t (windows are MSB-first).
	acc := new(big.Int)
	live := false // acc holds a value (skip squarings of the implicit 1)
	next := make([]int, len(terms))
	for p := maxBits - 1; p >= 0; p-- {
		if live {
			sq.Mul(acc, acc)
			acc.Mod(sq, c.M)
		}
		for t := range terms {
			if next[t] < len(wins[t]) && wins[t][next[t]].pos == p {
				v := tbl[t][wins[t][next[t]].val>>1]
				if live {
					sq.Mul(acc, v)
					acc.Mod(sq, c.M)
				} else {
					acc.Set(v)
					live = true
				}
				next[t]++
			}
		}
	}
	return acc, nil
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
