package paillier

import (
	"math/big"

	"ppgnn/internal/modmath"
)

// CRT acceleration for whoever holds the factorization. The dominant
// costs of Damgård–Jurik are full-width exponentiations mod N^{s+1}:
// c^λ in decryption and the randomness factor r^{N^s} in encryption.
// Knowing p and q, the key holder computes both modulo p^{s+1} and
// q^{s+1} separately and recombines — two half-width exponentiations
// instead of one full-width one. That roughly halves decryption, and cuts
// an encryption factor to about a third, because its exponent halves too
// (see BenchmarkDecrypt1024CRT and BenchmarkEncFactor in the tests).
//
// The encryption factor is not the same value as r^{N^s}, but it has the
// same distribution (DESIGN.md §5). The N^s-th residues of Z*_{N^{s+1}}
// form H = T_p × T_q, where T_p ⊂ Z*_{p^{s+1}} is the order-(p−1)
// subgroup. crtFactor maps r ∈ Z*_N to the unique element of H that is
// ≡ r (mod N): the Teichmüller lifts (r mod p)^{p^s} mod p^{s+1} and
// (r mod q)^{q^s} mod q^{s+1}. That map is a bijection Z*_N → H, so
// uniform r gives a uniform factor in H, exactly as r ↦ r^{N^s} does
// (a bijection on H because q ∤ p−1 and p ∤ q−1, which GenerateKey's
// gcd(λ, N) = 1 check guarantees).

// crtCtx caches the per-degree CRT moduli (as kernel contexts, so the
// half-width exponentiations share the same cached-modulus machinery as
// every other hot path), the Teichmüller exponents and the recombination
// coefficient.
type crtCtx struct {
	pCtx   *modmath.Ctx // modulus p^{s+1}
	qCtx   *modmath.Ctx // modulus q^{s+1}
	pS, qS *big.Int     // p^s and q^s
	coef   *big.Int     // (p^{s+1})^{-1} mod q^{s+1}
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
	ctx := &crtCtx{
		pCtx: modmath.MustCtx(pPow),
		qCtx: modmath.MustCtx(qPow),
		pS:   pS,
		qS:   qS,
		coef: coef,
	}
	// First writer wins so all callers share one context.
	if !sk.crtCtxs[s].CompareAndSwap(nil, ctx) {
		ctx = sk.crtCtxs[s].Load()
	}
	return ctx
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

// crtFactor computes the encryption factor for r ∈ Z*_N: the unique
// N^s-th residue mod N^{s+1} that is ≡ r (mod N), as the pair of
// Teichmüller lifts described above.
func (sk *PrivateKey) crtFactor(r *big.Int, s int) *big.Int {
	ctx := sk.crt(s)
	fp := ctx.pCtx.Exp(new(big.Int).Mod(r, sk.P), ctx.pS)
	fq := ctx.qCtx.Exp(new(big.Int).Mod(r, sk.Q), ctx.qS)
	return ctx.combine(fp, fq)
}
