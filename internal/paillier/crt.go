package paillier

import (
	"errors"
	"math/big"
	"sync"

	"ppgnn/internal/modmath"
)

// CRT acceleration for whoever holds the factorization. The dominant
// costs of Damgård–Jurik are full-width exponentiations mod N^{s+1}:
// c^λ in decryption and the randomness factor r^{N^s} in encryption.
// Knowing p and q, the key holder works modulo p^{s+1} and q^{s+1}
// separately and recombines. Decryption raises each half to p−1 or q−1
// instead of λ, half as wide, and takes the discrete log per prime (see
// below and BenchmarkDecryptLayered). An encryption factor costs a tenth
// to a twentieth of r^{N^s}: its moduli and exponents are half as wide,
// and each half is a fixed-base comb (modmath.FixedBase) instead of a
// variable-base exponentiation (see BenchmarkEncFactor in the tests).
// The key keeps one comb per half and degree within 16 KB; a batch of
// factors large enough to repay a wider comb (29 at 1024-bit keys and
// s = 1, 12 at 2048-bit keys) builds one after its draws, up to 1 MiB,
// and drops it when the batch returns (encCombs). Both read table
// entries indexed by secret exponent bits (SECURITY.md).
//
// The encryption factor is not the same value as r^{N^s}, but it has the
// same distribution (DESIGN.md §5). The N^s-th residues of Z*_{N^{s+1}}
// form H = T_p × T_q, where T_p ⊂ Z*_{p^{s+1}} is the cyclic order-(p−1)
// subgroup; r ↦ r^{N^s} is uniform on H for uniform r ∈ Z*_N (a
// bijection on H because q ∤ p−1 and p ∤ q−1, which GenerateKey's
// gcd(λ, N) = 1 check guarantees). GenerateKey keeps a generator g of
// Z*_p (prime.go), so G_p = g^{p^s} mod p^{s+1} generates T_p: raising to
// p^s kills the order-p^s part and G_p ≡ g (mod p) keeps order p−1. One
// uniform draw x ∈ [0, (p−1)(q−1)) splits into independent uniform
// a = x mod (p−1) and b = ⌊x/(p−1)⌋ < q−1, so CRT(G_p^a, G_q^b) is
// uniform on H — the distribution of r^{N^s}, with the same DCRA
// assumption.

// crtCtx caches the per-degree CRT moduli (as kernel contexts, so the
// half-width exponentiations share the same cached-modulus machinery as
// every other hot path), the fixed-base combs of the two generators and
// the recombination coefficient. The decryption constants are built on
// the first decryption at the degree, not with the context: encryption
// alone never pays for them.
type crtCtx struct {
	pCtx   *modmath.Ctx       // modulus p^{s+1}
	qCtx   *modmath.Ctx       // modulus q^{s+1}
	gp, gq *modmath.FixedBase // G_p = g_p^{p^s} mod p^{s+1}, G_q likewise
	coef   *big.Int           // (p^{s+1})^{-1} mod q^{s+1}

	decOnce sync.Once
	dec     *crtDec
}

// crt returns the CRT context for degree s, built once per key and read
// lock-free afterwards.
func (sk *PrivateKey) crt(s int) *crtCtx {
	if ctx := sk.crtCtxs[s].Load(); ctx != nil {
		return ctx
	}
	pS := new(big.Int).Exp(sk.P, big.NewInt(int64(s)), nil)
	qS := new(big.Int).Exp(sk.Q, big.NewInt(int64(s)), nil)
	pPow := new(big.Int).Mul(pS, sk.P)
	qPow := new(big.Int).Mul(qS, sk.Q)
	coef := new(big.Int).ModInverse(pPow, qPow)
	if coef == nil {
		panic("paillier: p^{s+1} not invertible mod q^{s+1}")
	}
	pCtx, qCtx := modmath.MustCtx(pPow), modmath.MustCtx(qPow)
	ctx := &crtCtx{
		pCtx: pCtx,
		qCtx: qCtx,
		gp:   fixedBase(pCtx, pCtx.Exp(sk.gp, pS), sk.P.BitLen()),
		gq:   fixedBase(qCtx, qCtx.Exp(sk.gq, qS), sk.Q.BitLen()),
		coef: coef,
	}
	// First writer wins so all callers share one context.
	if !sk.crtCtxs[s].CompareAndSwap(nil, ctx) {
		ctx = sk.crtCtxs[s].Load()
	}
	return ctx
}

// fixedBase builds the comb of g for exponents up to maxBits bits.
func fixedBase(ctx *modmath.Ctx, g *big.Int, maxBits int) *modmath.FixedBase {
	f, err := ctx.NewFixedBase(g, maxBits)
	if err != nil {
		// Unreachable: g is non-nil and maxBits ≥ 1 at every call site.
		panic("paillier: building fixed-base table: " + err.Error())
	}
	return f
}

// combine returns the u mod N^{s+1} with u ≡ up (mod p^{s+1}) and
// u ≡ uq (mod q^{s+1}).
func (ctx *crtCtx) combine(up, uq *big.Int) *big.Int {
	pPow, qPow := ctx.pCtx.M, ctx.qCtx.M
	// u = up + p^{s+1} · ((uq − up) · coef mod q^{s+1})
	t := new(big.Int).Sub(uq, up)
	t.Mod(t, qPow)
	t.Mul(t, ctx.coef)
	t.Mod(t, qPow)
	t.Mul(t, pPow)
	t.Add(t, up)
	return t
}

// Decryption per prime. Z*_{p^{s+1}} has order p^s·(p−1), and a
// ciphertext's randomness r^{N^s} has order dividing p−1 there (its
// N^s-th power kills the order-p^s part; see above). So c^{p−1} mod
// p^{s+1} is (1+N)^{m·(p−1)}, which lies in the order-p^s subgroup that
// 1+p generates: its discrete log to base 1+p is m·(p−1)·L_p mod p^s,
// with L_p = log_{1+p}(1+N). Multiplying by ((p−1)·L_p)⁻¹ mod p^s gives
// m mod p^s; likewise for q, and the CRT joins the two into m mod N^s.
// The exponents are p−1 and q−1, half as wide as λ, so each half's
// exponentiation costs about half of c^λ's.

// crtDec holds one degree's decryption constants.
type crtDec struct {
	p, q primeDec
	coef *big.Int // (p^s)⁻¹ mod q^s
}

// primeDec is one prime's half of a degree-s decryption.
type primeDec struct {
	ctx *modmath.Ctx // modulus p^{s+1}
	p   *big.Int
	h   *big.Int // ((p−1)·log_{1+p}(1+N))⁻¹ mod p^s
}

// decConsts returns the degree's decryption constants, built once.
func (sk *PrivateKey) decConsts(ctx *crtCtx, s int) *crtDec {
	ctx.decOnce.Do(func() {
		p := newPrimeDec(ctx.pCtx, sk.P, sk.N, s)
		q := newPrimeDec(ctx.qCtx, sk.Q, sk.N, s)
		pS := new(big.Int).Div(ctx.pCtx.M, sk.P)
		coef := pS.ModInverse(pS, new(big.Int).Div(ctx.qCtx.M, sk.Q))
		if coef == nil {
			panic("paillier: p^s not invertible mod q^s")
		}
		ctx.dec = &crtDec{p: p, q: q, coef: coef}
	})
	return ctx.dec
}

func newPrimeDec(ctx *modmath.Ctx, p, n *big.Int, s int) primeDec {
	pow, invfac := primeLogBase(p, s)
	l, err := dlog(new(big.Int).Add(n, one), s, pow, invfac)
	if err != nil {
		panic("paillier: 1+N is not a power of 1+p")
	}
	l.Mul(l, new(big.Int).Sub(p, one))
	h := new(big.Int).ModInverse(l.Mod(l, pow(s)), pow(s))
	if h == nil {
		panic("paillier: (p−1)·log(1+N) not invertible mod p^s")
	}
	return primeDec{ctx: ctx, p: p, h: h}
}

// primeLogBase returns what dlog reads for base 1+p: pow(j) = p^j for
// j ≤ s+1 and invfac(k) = (k!)⁻¹ mod p^s. A decryption builds them
// afresh, at far less than its exponentiation costs, rather than the key
// keeping them.
func primeLogBase(p *big.Int, s int) (pow, invfac func(int) *big.Int) {
	pows := []*big.Int{big.NewInt(1)}
	for j := 1; j <= s+1; j++ {
		pows = append(pows, new(big.Int).Mul(pows[j-1], p))
	}
	pow = func(j int) *big.Int { return pows[j] }
	invfac = func(k int) *big.Int {
		f := new(big.Int).MulRange(1, int64(k))
		return f.ModInverse(f, pows[s])
	}
	return pow, invfac
}

// plain returns c's plaintext mod p^s, failing when c mod p^{s+1} is no
// unit (c shares the factor p with N).
func (d *primeDec) plain(c *big.Int, s int) (*big.Int, error) {
	u := d.ctx.Exp(new(big.Int).Mod(c, d.ctx.M), new(big.Int).Sub(d.p, one))
	pow, invfac := primeLogBase(d.p, s)
	x, err := dlog(u, s, pow, invfac)
	if err != nil {
		return nil, err
	}
	x.Mul(x, d.h)
	return x.Mod(x, pow(s)), nil
}

// decryptCRT returns the plaintext of the degree-s ciphertext c from its
// two per-prime halves.
func (sk *PrivateKey) decryptCRT(c *big.Int, s int) (*big.Int, error) {
	d := sk.decConsts(sk.crt(s), s)
	mp, err := d.p.plain(c, s)
	if err != nil {
		return nil, err
	}
	mq, err := d.q.plain(c, s)
	if err != nil {
		return nil, err
	}
	// m = mp + p^s · ((mq − mp) · coef mod q^s)
	pS := new(big.Int).Div(d.p.ctx.M, d.p.p)
	qS := new(big.Int).Div(d.q.ctx.M, d.q.p)
	m := mq.Sub(mq, mp)
	m.Mul(m, d.coef)
	m.Mod(m, qS)
	m.Mul(m, pS)
	return m.Add(m, mp), nil
}

// dlog returns x ∈ [0, n^s) with u ≡ (1+n)^x (mod n^{s+1}), by the
// iterative algorithm of Damgård–Jurik (PKC 2001, Section 4.2); pow(j)
// is n^j and invfac(k) a value ≡ (k!)⁻¹ (mod n^s). It fails when some
// u mod n^{j+1} is not ≡ 1 (mod n): u is then no power of 1+n.
func dlog(u *big.Int, s int, pow, invfac func(int) *big.Int) (*big.Int, error) {
	n := pow(1)
	x := new(big.Int)
	t1 := new(big.Int)
	t2 := new(big.Int)
	tmp := new(big.Int)
	for j := 1; j <= s; j++ {
		nj := pow(j)
		// t1 = L(u mod n^{j+1}) where L(v) = (v-1)/n; exact by construction.
		t1.Mod(u, pow(j+1))
		t1.Sub(t1, one)
		if tmp.Mod(t1, n).Sign() != 0 {
			return nil, errors.New("paillier: decryption failed (invalid ciphertext)")
		}
		t1.Div(t1, n)
		t2.Set(x)
		xk := new(big.Int).Set(x) // running x - (k-1)
		for k := 2; k <= j; k++ {
			xk.Sub(xk, one)
			t2.Mul(t2, xk)
			t2.Mod(t2, nj)
			// t1 -= t2 * n^{k-1} / k!  (mod n^j)
			tmp.Mul(t2, pow(k-1))
			tmp.Mod(tmp, nj)
			tmp.Mul(tmp, invfac(k))
			tmp.Mod(tmp, nj)
			t1.Sub(t1, tmp)
			t1.Mod(t1, nj)
		}
		x.Set(t1)
	}
	return x, nil
}

// factorCombs is the pair of combs, of G_p and G_q at one degree, that a
// set of encryption factors runs on: the key's cached pair, or a pair
// built for one batch (encCombs).
type factorCombs struct {
	ctx    *crtCtx
	gp, gq *modmath.FixedBase
}

// encCombs returns the combs n degree-s factors are cheapest on: in each
// half the cached comb, or a wider comb built for the batch when its
// build plus n exponentiations costs fewer products
// (modmath.FixedBase.Batch). A batch comb lives as long as the returned
// value; the key keeps only the cached pair.
func (sk *PrivateKey) encCombs(s, n int) factorCombs {
	ctx := sk.crt(s)
	return factorCombs{ctx: ctx, gp: ctx.gp.Batch(n), gq: ctx.gq.Batch(n)}
}

// combFactor computes the encryption factor for a draw x ∈
// [0, (p−1)(q−1)) on the combs c: CRT(G_p^{x mod (p−1)}, G_q^{⌊x/(p−1)⌋}),
// uniform on H for uniform x. Any comb gives the same value, and each
// spends the same products on every exponent.
func (sk *PrivateKey) combFactor(c factorCombs, x *big.Int) *big.Int {
	b, a := new(big.Int).QuoRem(x, sk.pm1, new(big.Int))
	return c.ctx.combine(c.gp.Exp(a), c.gq.Exp(b))
}
