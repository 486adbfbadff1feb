package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"time"
)

// Threshold decryption, from Section 4.1 of the same Damgård–Jurik paper
// the protocol's ε_s scheme comes from. It removes the PPGNN protocol's
// residual trust point: in the base protocol the coordinator u_c alone
// holds the secret key and therefore sees the answer first; with a
// (t, w)-threshold key, decryption requires t of the w users to cooperate,
// so no single user — coordinator included — can decrypt alone. See
// examples/threshold.
//
// Construction (semi-honest setting, matching the paper's adversary
// model — the zero-knowledge correctness proofs of the original scheme are
// out of scope here):
//
//   - N = pq with safe primes p = 2p'+1, q = 2q'+1; m = p'q'.
//   - The shared secret is d ≡ 0 (mod m), d ≡ 1 (mod N^S), Shamir-shared
//     with a degree t−1 polynomial over Z_{N^S·m}.
//   - A share holder outputs c_i = c^{2Δ·s_i} mod N^{s+1} with Δ = w!.
//   - Any t shares combine as c' = Π c_i^{2·λ_i} with integral Lagrange
//     coefficients λ_i = Δ·Π_{j≠i} j/(j−i), giving c' = c^{4Δ²·d} =
//     (1+N)^{4Δ²·x}; the plaintext is log(c')·(4Δ²)^{-1} mod N^s.

// ThresholdKey is the public side of a (t, w)-threshold key.
type ThresholdKey struct {
	PublicKey
	W    int // total share holders
	T    int // shares required to decrypt
	SMax int // largest supported ciphertext degree

	delta *big.Int // w!
}

// KeyShare is one holder's secret share of the decryption exponent.
type KeyShare struct {
	Index int // 1-based holder index
	Value *big.Int
}

// DecryptionShare is one holder's contribution to decrypting a ciphertext.
type DecryptionShare struct {
	Index int
	S     int
	Value *big.Int
}

// GenerateThresholdKey creates a (t, w)-threshold key pair supporting
// ciphertext degrees up to sMax. bits is the modulus size; safe-prime
// generation makes this noticeably slower than GenerateKey (seconds at
// research sizes, minutes at 1024 bits in pure Go).
func GenerateThresholdKey(random io.Reader, bits, w, t, sMax int) (*ThresholdKey, []*KeyShare, error) {
	if bits < 32 {
		return nil, nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	if t < 1 || w < t {
		return nil, nil, fmt.Errorf("paillier: invalid threshold %d-of-%d", t, w)
	}
	if sMax < 1 || sMax > MaxS {
		return nil, nil, fmt.Errorf("paillier: sMax=%d out of range [1,%d]", sMax, MaxS)
	}
	if random == nil {
		random = rand.Reader
	}
	p, pPrime, err := safePrime(random, bits/2)
	if err != nil {
		return nil, nil, err
	}
	var q, qPrime *big.Int
	for {
		q, qPrime, err = safePrime(random, bits-bits/2)
		if err != nil {
			return nil, nil, err
		}
		if q.Cmp(p) != 0 {
			break
		}
	}
	n := new(big.Int).Mul(p, q)
	m := new(big.Int).Mul(pPrime, qPrime)

	tk := &ThresholdKey{
		PublicKey: PublicKey{N: n},
		W:         w, T: t, SMax: sMax,
		delta: factorial(w),
	}
	ns := tk.NS(sMax)

	// d ≡ 0 (mod m), d ≡ 1 (mod N^SMax), via CRT (gcd(m, N^SMax) = 1:
	// p', q' are primes larger than 2 and distinct from p, q).
	mInv := new(big.Int).ModInverse(m, ns)
	if mInv == nil {
		return nil, nil, errors.New("paillier: m not invertible mod N^s")
	}
	d := new(big.Int).Mul(m, mInv) // ≡ 0 mod m, ≡ 1 mod N^SMax
	mod := new(big.Int).Mul(ns, m) // share arithmetic modulus N^SMax·m

	// Shamir: f(X) = d + a_1·X + … + a_{t−1}·X^{t−1} over Z_{N^SMax·m}.
	coeffs := make([]*big.Int, t)
	coeffs[0] = d
	for i := 1; i < t; i++ {
		a, err := rand.Int(random, mod)
		if err != nil {
			return nil, nil, fmt.Errorf("paillier: sampling polynomial: %w", err)
		}
		coeffs[i] = a
	}
	shares := make([]*KeyShare, w)
	for i := 1; i <= w; i++ {
		x := big.NewInt(int64(i))
		val := new(big.Int)
		for j := t - 1; j >= 0; j-- {
			val.Mul(val, x)
			val.Add(val, coeffs[j])
			val.Mod(val, mod)
		}
		shares[i-1] = &KeyShare{Index: i, Value: val}
	}
	return tk, shares, nil
}

// safePrime returns p = 2p'+1 with both p and p' prime.
func safePrime(random io.Reader, bits int) (p, pPrime *big.Int, err error) {
	two := big.NewInt(2)
	for {
		pp, err := randPrime(random, bits-1)
		if err != nil {
			return nil, nil, fmt.Errorf("paillier: generating safe prime: %w", err)
		}
		cand := new(big.Int).Mul(pp, two)
		cand.Add(cand, one)
		if cand.BitLen() != bits {
			continue
		}
		if cand.ProbablyPrime(20) {
			return cand, pp, nil
		}
	}
}

func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// PartialDecrypt produces holder share.Index's contribution c^{2Δ·s_i}.
func (tk *ThresholdKey) PartialDecrypt(share *KeyShare, c *Ciphertext) (*DecryptionShare, error) {
	if c.S < 1 || c.S > tk.SMax {
		return nil, fmt.Errorf("paillier: ciphertext degree %d outside [1,%d]", c.S, tk.SMax)
	}
	mod := tk.NS(c.S + 1)
	if c.C.Sign() <= 0 || c.C.Cmp(mod) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	e := new(big.Int).Lsh(tk.delta, 1) // 2Δ
	e.Mul(e, share.Value)
	mPartialDec.Inc()
	return &DecryptionShare{
		Index: share.Index,
		S:     c.S,
		Value: tk.Ctx(c.S+1).Exp(c.C, e),
	}, nil
}

// Combine recovers the plaintext from any t decryption shares (extra
// shares are ignored; duplicates and unknown indices are rejected).
func (tk *ThresholdKey) Combine(shares []*DecryptionShare) (*big.Int, error) {
	defer observeDecrypt(mDecryptThres, time.Now())
	mCombine.Inc()
	if len(shares) < tk.T {
		return nil, fmt.Errorf("paillier: %d shares below threshold %d", len(shares), tk.T)
	}
	use := shares[:tk.T]
	s := use[0].S
	seen := map[int]bool{}
	for _, sh := range use {
		if sh.S != s {
			return nil, errors.New("paillier: mixed-degree decryption shares")
		}
		if sh.Index < 1 || sh.Index > tk.W {
			return nil, fmt.Errorf("paillier: share index %d outside [1,%d]", sh.Index, tk.W)
		}
		if seen[sh.Index] {
			return nil, fmt.Errorf("paillier: duplicate share index %d", sh.Index)
		}
		seen[sh.Index] = true
	}
	ctx := tk.Ctx(s + 1)
	mod := ctx.M
	// c' = Π c_i^{2λ_i}: negative coefficients invert the share first (the
	// group element, not the exponent — N^{s+1}'s order is private), then
	// all terms go through one interleaved multi-exponentiation.
	bases := make([]*big.Int, 0, len(use))
	exps := make([]*big.Int, 0, len(use))
	for _, sh := range use {
		lam, err := tk.lagrange(sh.Index, use)
		if err != nil {
			return nil, err
		}
		e := new(big.Int).Lsh(lam, 1) // 2λ
		base := sh.Value
		if e.Sign() < 0 {
			base = new(big.Int).ModInverse(sh.Value, mod)
			if base == nil {
				return nil, errors.New("paillier: share not invertible")
			}
			e.Neg(e)
		}
		bases = append(bases, base)
		exps = append(exps, e)
	}
	acc, err := ctx.MultiExp(bases, exps)
	if err != nil {
		return nil, fmt.Errorf("paillier: combining shares: %w", err)
	}
	// acc = (1+N)^{4Δ²·x}; recover x.
	xScaled, err := tk.logOnePlusN(acc, s)
	if err != nil {
		return nil, err
	}
	ns := tk.NS(s)
	scale := new(big.Int).Mul(tk.delta, tk.delta)
	scale.Lsh(scale, 2) // 4Δ²
	scale.Mod(scale, ns)
	inv := new(big.Int).ModInverse(scale, ns)
	if inv == nil {
		return nil, errors.New("paillier: 4Δ² not invertible mod N^s")
	}
	xScaled.Mul(xScaled, inv)
	xScaled.Mod(xScaled, ns)
	return xScaled, nil
}

// lagrange returns λ_i = Δ·Π_{j∈S, j≠i} j/(i−j inverted) — the integral
// Lagrange coefficient at zero for the share subset.
func (tk *ThresholdKey) lagrange(i int, subset []*DecryptionShare) (*big.Int, error) {
	num := new(big.Int).Set(tk.delta)
	den := big.NewInt(1)
	for _, sh := range subset {
		if sh.Index == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(sh.Index)))
		den.Mul(den, big.NewInt(int64(sh.Index-i)))
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		return nil, errors.New("paillier: non-integral Lagrange coefficient")
	}
	return q, nil
}
