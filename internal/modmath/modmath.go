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
//   - Tables: Straus/interleaved multi-exponentiation
//     Π bases[i]^{exps[j][i]} mod M for many exponent vectors j over one
//     list of bases: each base's odd-power table is built once, and each
//     vector runs one squaring chain shared by all its terms — the ⨂
//     selections, whose rows all raise the same indicator ciphertexts.
//     MultiExp is its one-vector case and Exp its one-term case, so the
//     package has a single chain.
//   - FixedBase: a Lim–Lee comb of h rows and v precomputed tables, for
//     bases reused across many exponentiations: the key holder's
//     encryption factors, one generator per CRT half. One cost model
//     sizes the key's long-lived comb and, through Batch, a wider comb a
//     batch builds for itself when that saves products. Every exponent
//     costs the same number of products.
//
// The chain and the comb multiply Montgomery residues and reduce with
// REDC over math/big's assembly word primitives (montgomery.go,
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
	"math/bits"
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
// It is the one-term case of the Straus chain, and returns the value
// big.Int.Exp would.
func (c *Ctx) Exp(base, e *big.Int) *big.Int {
	if e.Sign() < 0 {
		panic("modmath: negative exponent")
	}
	s := c.newScratch()
	t, err := c.newTables([]*big.Int{base}, [][]*big.Int{{e}}, 0, s)
	if err != nil {
		panic(err)
	}
	return t.product(0, s)
}

// MultiExp computes Π bases[i]^{exps[i]} mod M via Straus' interleaved
// sliding-window method: one shared squaring chain over the longest
// exponent plus per-term window multiplications, instead of a full
// square-and-multiply ladder per term. All exponents must be ≥ 0
// (callers reduce negatives into [0, group order) first — paillier does,
// mod N^s). Terms with a zero exponent contribute 1 and are skipped.
// It is NewTables with a single exponent vector.
//
// The result is exactly the canonical product in [0, M): byte-identical
// to multiplying the big.Int.Exp of every term.
func (c *Ctx) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	t, err := c.NewTables(bases, [][]*big.Int{exps})
	if err != nil {
		return nil, err
	}
	return t.Product(0), nil
}

// windowTableBytes caps the odd-power tables of one table set. It allows
// w = 8 for PPGNN-OPT's 15 phase-1 bases mod a 4096-bit N² and w = 6 for
// PPGNN's 101 bases mod a 2048-bit N².
const windowTableBytes = 1 << 20

// maxWindow bounds the window search; the byte cap binds long before it
// at protocol sizes.
const maxWindow = 16

// chooseWindow picks the Straus window width w that minimises the
// products a table set will spend: terms·2^{w−1} to build the odd-power
// tables of its live terms, plus totalBits/(w+1) window products, since a
// sliding window of width w covers w+1 bits on average. The squarings do
// not depend on w. The tables (terms·2^{w−1} entries of n words) stay
// within windowTableBytes.
func chooseWindow(terms, n, totalBits int) uint {
	best, bestCost := uint(1), 0.0
	for w := uint(1); w <= maxWindow; w++ {
		if w > 1 && (terms<<(w-1))*n*bits.UintSize/8 > windowTableBytes {
			break
		}
		cost := float64(terms<<(w-1)) + float64(totalBits)/float64(w+1)
		if w == 1 || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
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

// Tables is one set of Straus odd-power tables: each base's odd powers
// b, b³, …, b^{2^w−1} as Montgomery residues, built once and shared by
// every exponent vector the set was made for. Product(j) runs one
// squaring chain for vector j and reads the tables without writing them,
// so a Tables is safe for concurrent use: the paillier layer builds one
// per ⨂ selection and fans its rows across a worker pool.
type Tables struct {
	c    *Ctx
	exps [][]*big.Int
	w    uint
	half int // 2^{w−1}, the entries per table

	// slot[i] is base i's table index, or −1 when its exponent is zero
	// in every vector (no table is built for it). Table k's entry j is
	// tbl[(k·half+j)·n:][:n]; zero[k] marks a base ≡ 0 (mod M), which
	// zeroes every product it enters with a nonzero exponent.
	slot []int
	zero []bool
	tbl  []big.Word
}

// NewTables validates bases and every exponent vector — each as long as
// bases, all exponents ≥ 0 — and builds the tables of every base with a
// nonzero exponent somewhere, at the window chooseWindow gives for all
// the vectors together.
func (c *Ctx) NewTables(bases []*big.Int, exps [][]*big.Int) (*Tables, error) {
	return c.newTables(bases, exps, 0, nil)
}

// newTables is NewTables with the window forced when w > 0, and table
// building counted in s when s is non-nil (the clock-free tests use
// both).
func (c *Ctx) newTables(bases []*big.Int, exps [][]*big.Int, w uint, s *montScratch) (*Tables, error) {
	for _, b := range bases {
		if b == nil {
			return nil, errors.New("modmath: nil multiexp element")
		}
	}
	slot := make([]int, len(bases))
	for i := range slot {
		slot[i] = -1
	}
	live, totalBits := 0, 0
	for _, vec := range exps {
		if len(vec) != len(bases) {
			return nil, errors.New("modmath: multiexp length mismatch")
		}
		for i, e := range vec {
			if e == nil {
				return nil, errors.New("modmath: nil multiexp element")
			}
			if e.Sign() < 0 {
				return nil, errors.New("modmath: negative multiexp exponent")
			}
			if e.Sign() == 0 {
				continue
			}
			if slot[i] < 0 {
				slot[i] = live
				live++
			}
			totalBits += e.BitLen()
		}
	}
	n := len(c.mw)
	if w == 0 {
		w = chooseWindow(live, n, totalBits)
	}
	t := &Tables{
		c: c, exps: exps, w: w, half: 1 << (w - 1),
		slot: slot, zero: make([]bool, live),
		tbl: make([]big.Word, live<<(w-1)*n),
	}
	if live == 0 {
		return t, nil
	}
	if s == nil {
		s = c.newScratch()
	}
	b2 := make([]big.Word, n)
	for i, k := range slot {
		if k < 0 {
			continue
		}
		if !s.enter(t.entry(k, 0), bases[i]) {
			t.zero[k] = true
			continue
		}
		if t.half > 1 {
			s.mul(b2, t.entry(k, 0), t.entry(k, 0))
			for j := 1; j < t.half; j++ {
				s.mul(t.entry(k, j), t.entry(k, j-1), b2)
			}
		}
	}
	return t, nil
}

// entry returns entry j, the residue of b^{2j+1}, of table k.
func (t *Tables) entry(k, j int) []big.Word {
	n := len(t.c.mw)
	off := (k*t.half + j) * n
	return t.tbl[off : off+n : off+n]
}

// Product returns Π bases[i]^{exps[j][i]} mod M for exponent vector j:
// exactly the canonical value MultiExpRef returns.
func (t *Tables) Product(j int) *big.Int {
	return t.product(j, t.c.newScratch())
}

// product runs vector j's chain on Montgomery residues (montgomery.go).
// The chain squares once per bit level of the longest exponent and
// multiplies in every window whose low end sits at that level; the
// result leaves the domain through one REDC.
func (t *Tables) product(j int, s *montScratch) *big.Int {
	type term struct {
		k    int // table index
		wins []window
		next int // first unconsumed window (windows are MSB-first)
	}
	var terms []term
	maxBits, zero := 0, false
	for i, e := range t.exps[j] {
		if e.Sign() == 0 {
			continue
		}
		k := t.slot[i]
		zero = zero || t.zero[k]
		terms = append(terms, term{k: k, wins: slideWindows(e, t.w, nil)})
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	switch {
	case len(terms) == 0:
		return big.NewInt(1)
	case zero:
		return new(big.Int)
	}
	acc := make([]big.Word, len(t.c.mw))
	live := false // acc holds a value (skip squarings of the implicit 1)
	for p := maxBits - 1; p >= 0; p-- {
		if live {
			s.mul(acc, acc, acc)
		}
		for x := range terms {
			tm := &terms[x]
			if tm.next < len(tm.wins) && tm.wins[tm.next].pos == p {
				v := t.entry(tm.k, int(tm.wins[tm.next].val>>1))
				if live {
					s.mul(acc, acc, v)
				} else {
					copy(acc, v)
					live = true
				}
				tm.next++
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
