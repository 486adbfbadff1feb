package paillier

import (
	"math/big"

	"ppgnn/internal/modmath"
)

// CRT acceleration for whoever holds the factorization. The dominant
// costs of Damgård–Jurik are full-width exponentiations mod N^{s+1}:
// c^λ in decryption and the randomness factor r^{N^s} in encryption.
// Knowing p and q, the key holder computes both modulo p^{s+1} and
// q^{s+1} separately and recombines. That roughly halves decryption. An
// encryption factor costs a tenth to a twentieth of r^{N^s}: its moduli
// and exponents are half as wide, and each half is a fixed-base comb
// (modmath.FixedBase) instead of a variable-base exponentiation (see
// BenchmarkDecrypt1024CRT and BenchmarkEncFactor in the tests).
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
// the recombination coefficient.
type crtCtx struct {
	pCtx   *modmath.Ctx       // modulus p^{s+1}
	qCtx   *modmath.Ctx       // modulus q^{s+1}
	gp, gq *modmath.FixedBase // G_p = g_p^{p^s} mod p^{s+1}, G_q likewise
	coef   *big.Int           // (p^{s+1})^{-1} mod q^{s+1}
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

// expLambdaCRT computes c^λ mod N^{s+1} via the factorization.
func (sk *PrivateKey) expLambdaCRT(c *big.Int, s int) *big.Int {
	ctx := sk.crt(s)
	up := ctx.pCtx.Exp(new(big.Int).Mod(c, ctx.pCtx.M), sk.lambda)
	uq := ctx.qCtx.Exp(new(big.Int).Mod(c, ctx.qCtx.M), sk.lambda)
	return ctx.combine(up, uq)
}

// combFactor computes the encryption factor for a draw x ∈
// [0, (p−1)(q−1)): CRT(G_p^{x mod (p−1)}, G_q^{⌊x/(p−1)⌋}), uniform on H
// for uniform x. Both combs cost the same for every exponent.
func (sk *PrivateKey) combFactor(x *big.Int, s int) *big.Int {
	ctx := sk.crt(s)
	b, a := new(big.Int).QuoRem(x, sk.pm1, new(big.Int))
	return ctx.combine(ctx.gp.Exp(a), ctx.gq.Exp(b))
}
