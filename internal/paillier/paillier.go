// Package paillier implements the generalized Paillier cryptosystem of
// Damgård and Jurik ("A Generalisation, a Simplification and Some
// Applications of Paillier's Probabilistic Public-Key System", PKC 2001),
// written ε_s in the paper. For s = 1 it is exactly Paillier's scheme.
//
// For a modulus N = pq, plaintexts live in Z_{N^s} and ciphertexts in
// Z*_{N^{s+1}}:
//
//	Enc_s(m; r) = (1+N)^m · r^{N^s}  mod N^{s+1}
//
// The scheme is additively homomorphic:
//
//	Enc(m1) · Enc(m2)   = Enc(m1 + m2)        (⊕, Add)
//	Enc(m)^x            = Enc(x·m)            (⊗, MulPlain)
//	Π Enc(v_i)^{x_i}    = Enc(Σ x_i·v_i)      (⊙, DotProduct)
//
// A distinguishing feature used by PPGNN-OPT (paper Section 6) is layering:
// a ciphertext of ε_1 is an element of Z_{N^2} and therefore a valid
// plaintext of ε_2, so it can be encrypted again under the same key pair
// and privately selected a second time.
//
// The implementation uses only the standard library (math/big, crypto/rand).
package paillier

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"ppgnn/internal/modmath"
	"ppgnn/internal/parallel"
)

var one = big.NewInt(1)

// MaxS is the largest ciphertext degree supported. PPGNN needs s ≤ 2; a few
// more are supported so the generalized scheme is usable on its own.
const MaxS = 8

// PublicKey holds the public modulus N and cached powers of N used by the
// homomorphic operations.
type PublicKey struct {
	N *big.Int // product of two large primes

	mu     sync.Mutex
	npow   []*big.Int // npow[i] = N^i, npow[0] = 1
	invfac []*big.Int // invfac[i] = (i!)^{-1} mod N^{MaxS+1}

	// ctxs[s] is the kernel context for modulus N^s, built once per key
	// and read lock-free on every operation (NS and Ctx fast paths).
	ctxs [MaxS + 2]atomic.Pointer[modmath.Ctx]
	// sk links the key to its factorization. Only GenerateKey sets it, so
	// only the key holder's encryption factors take the CRT path (crt.go);
	// NewPublicKey and threshold keys leave it nil.
	sk *PrivateKey
}

// PrivateKey holds the factorization-derived trapdoor.
type PrivateKey struct {
	PublicKey
	P, Q   *big.Int
	lambda *big.Int // lcm(p-1, q-1); decryption runs per prime (crt.go)
	// gp and gq generate Z*_p and Z*_q (prime.go); pm1 = p−1 and
	// phi = (p−1)(q−1) split and bound the encryption draws (crt.go).
	gp, gq   *big.Int
	pm1, phi *big.Int

	// crtCtxs[s] is the degree-s CRT context (crt.go), built once and
	// read lock-free like PublicKey.ctxs.
	crtCtxs [MaxS + 1]atomic.Pointer[crtCtx]
}

// Ciphertext is an element of Z*_{N^{S+1}} encrypting a plaintext in Z_{N^S}.
type Ciphertext struct {
	C *big.Int
	S int
}

// GenerateKey creates a key pair whose modulus N has the given bit size.
// Following the paper's setup, bits=1024 is the common choice; tests may use
// smaller keys since correctness is size-independent. random defaults to
// crypto/rand.Reader when nil.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, gp, _, err := genPrime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, gq, _, err := genPrime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		// Both primes have their top two bits set, so N has all its bits.
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Div(phi, gcd)
		// Per-prime decryption of every unit and the CRT factors'
		// uniformity (crt.go) need q ∤ p−1 and p ∤ q−1: both are
		// gcd(lambda, N) = 1.
		if new(big.Int).GCD(nil, nil, lambda, n).Cmp(one) != 0 {
			continue
		}
		key := &PrivateKey{
			PublicKey: PublicKey{N: n},
			P:         p,
			Q:         q,
			lambda:    lambda,
			gp:        gp,
			gq:        gq,
			pm1:       pm1,
			phi:       phi,
		}
		key.sk = key
		return key, nil
	}
}

// NewPublicKey reconstructs a public key from its modulus, e.g. after
// receiving it over the wire.
func NewPublicKey(n *big.Int) *PublicKey {
	return &PublicKey{N: new(big.Int).Set(n)}
}

// NS returns N^s. It panics if s is out of range. After the first call
// for a given s the lookup is lock- and allocation-free (one atomic
// load off the kernel context — TestNSLookupZeroAllocs pins this), so
// hot paths can call it per operation instead of caching the modulus
// themselves.
func (pk *PublicKey) NS(s int) *big.Int {
	if s == 0 {
		return one
	}
	return pk.Ctx(s).M
}

// Ctx returns the modmath kernel context for modulus N^s (s ≥ 1),
// built once per key and shared by every operation on that modulus.
func (pk *PublicKey) Ctx(s int) *modmath.Ctx {
	if s < 1 || s > MaxS+1 {
		panic(fmt.Sprintf("paillier: N^%d out of supported range", s))
	}
	if ctx := pk.ctxs[s].Load(); ctx != nil {
		return ctx
	}
	pk.mu.Lock()
	m := pk.nsLocked(s)
	pk.mu.Unlock()
	ctx := modmath.MustCtx(m)
	// First writer wins so all callers share one context.
	if !pk.ctxs[s].CompareAndSwap(nil, ctx) {
		ctx = pk.ctxs[s].Load()
	}
	return ctx
}

func (pk *PublicKey) nsLocked(s int) *big.Int {
	if pk.npow == nil {
		pk.npow = []*big.Int{big.NewInt(1), new(big.Int).Set(pk.N)}
	}
	for len(pk.npow) <= s {
		next := new(big.Int).Mul(pk.npow[len(pk.npow)-1], pk.N)
		pk.npow = append(pk.npow, next)
	}
	return pk.npow[s]
}

// invFactorial returns (i!)^{-1} mod N^{MaxS+1}.
func (pk *PublicKey) invFactorial(i int) *big.Int {
	pk.mu.Lock()
	defer pk.mu.Unlock()
	if pk.invfac == nil {
		pk.invfac = []*big.Int{big.NewInt(1), big.NewInt(1)}
	}
	mod := pk.nsLocked(MaxS + 1)
	for len(pk.invfac) <= i {
		k := int64(len(pk.invfac))
		invK := new(big.Int).ModInverse(big.NewInt(k), mod)
		if invK == nil {
			// Impossible for a well-formed key: k < p,q.
			panic("paillier: factorial not invertible mod N")
		}
		next := new(big.Int).Mul(pk.invfac[len(pk.invfac)-1], invK)
		next.Mod(next, mod)
		pk.invfac = append(pk.invfac, next)
	}
	return pk.invfac[i]
}

// onePlusNExp computes (1+N)^m mod N^{s+1} via the binomial expansion
// Σ_{i=0}^{s} C(m,i)·N^i, which needs only s modular multiplications
// instead of a full |m|-bit exponentiation.
func (pk *PublicKey) onePlusNExp(m *big.Int, s int) *big.Int {
	mod := pk.NS(s + 1)
	res := big.NewInt(1)
	term := new(big.Int).Set(one) // running Π_{j=0}^{i-1} (m-j) mod N^{s+1}
	mj := new(big.Int)
	tmp := new(big.Int)
	for i := 1; i <= s; i++ {
		mj.Sub(m, big.NewInt(int64(i-1)))
		term.Mul(term, mj)
		term.Mod(term, mod)
		// C(m,i)·N^i = term · (i!)^{-1} · N^i  (mod N^{s+1})
		tmp.Mul(term, pk.invFactorial(i))
		tmp.Mod(tmp, mod)
		tmp.Mul(tmp, pk.NS(i))
		tmp.Mod(tmp, mod)
		res.Add(res, tmp)
	}
	res.Mod(res, mod)
	return res
}

// randomUnit draws r uniformly from Z*_N.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	gcd := new(big.Int)
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if gcd.GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// drawEncRand draws one encryption-randomness value: x < (p−1)(q−1) for
// the key holder's CRT factor, else a unit r ∈ Z*_N. Batch paths draw
// serially in index order (encFactors), so seeded readers are consumed
// exactly like the serial loop.
func (pk *PublicKey) drawEncRand(random io.Reader) (*big.Int, error) {
	if pk.sk == nil {
		return pk.randomUnit(random)
	}
	if random == nil {
		random = rand.Reader
	}
	return rand.Int(random, pk.sk.phi)
}

// encFactor turns a drawn randomness value into the ciphertext factor:
// the same-distribution fixed-base CRT factor when the key holder
// encrypts (crt.go), else r^{N^s} mod N^{s+1}. Safe for concurrent use
// once warmEnc has built the needed tables.
func (pk *PublicKey) encFactor(rv *big.Int, s int) *big.Int {
	if pk.sk != nil {
		return pk.sk.combFactor(pk.sk.encCombs(s, 1), rv)
	}
	return pk.Ctx(s+1).Exp(rv, pk.NS(s))
}

// Encrypt encrypts m under ε_s. m must lie in [0, N^s). random defaults to
// crypto/rand.Reader when nil.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int, s int) (*Ciphertext, error) {
	if s < 1 || s > MaxS {
		return nil, fmt.Errorf("paillier: degree s=%d out of range [1,%d]", s, MaxS)
	}
	if m.Sign() < 0 || m.Cmp(pk.NS(s)) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range [0, N^%d)", s)
	}
	rv, err := pk.drawEncRand(random)
	if err != nil {
		return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
	}
	return pk.encryptWith(m, pk.encFactor(rv, s), s), nil
}

// encryptWith assembles (1+N)^m · f mod N^{s+1} for a ready factor f.
func (pk *PublicKey) encryptWith(m, f *big.Int, s int) *Ciphertext {
	c := pk.onePlusNExp(m, s)
	return pk.mulFactor(c, f, s)
}

// mulFactor returns the degree-s ciphertext c·f mod N^{s+1}: with f an
// encryption of zero, a rerandomization of c.
func (pk *PublicKey) mulFactor(c, f *big.Int, s int) *Ciphertext {
	c = new(big.Int).Mul(c, f)
	c.Mod(c, pk.NS(s+1))
	return &Ciphertext{C: c, S: s}
}

// EncryptInt64 is a convenience wrapper around Encrypt for small plaintexts.
func (pk *PublicKey) EncryptInt64(random io.Reader, m int64, s int) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(m), s)
}

// Rerandomize multiplies c by a fresh encryption of zero, producing a
// ciphertext of the same plaintext that is unlinkable to c.
func (pk *PublicKey) Rerandomize(random io.Reader, c *Ciphertext) (*Ciphertext, error) {
	zero, err := pk.Encrypt(random, new(big.Int), c.S)
	if err != nil {
		return nil, err
	}
	return pk.Add(c, zero)
}

// Add implements ⊕: the returned ciphertext encrypts the sum of the two
// plaintexts (mod N^s). Both ciphertexts must have the same degree.
func (pk *PublicKey) Add(c1, c2 *Ciphertext) (*Ciphertext, error) {
	if c1.S != c2.S {
		return nil, fmt.Errorf("paillier: adding ciphertexts of degree %d and %d", c1.S, c2.S)
	}
	mod := pk.NS(c1.S + 1)
	c := new(big.Int).Mul(c1.C, c2.C)
	c.Mod(c, mod)
	return &Ciphertext{C: c, S: c1.S}, nil
}

// MulPlain implements ⊗: the returned ciphertext encrypts x·m (mod N^s)
// where m is c's plaintext. Negative x is reduced mod N^s.
func (pk *PublicKey) MulPlain(x *big.Int, c *Ciphertext) *Ciphertext {
	e := x
	if x.Sign() < 0 {
		e = new(big.Int).Mod(x, pk.NS(c.S))
	}
	return &Ciphertext{C: pk.Ctx(c.S+1).Exp(c.C, e), S: c.S}
}

// DotProduct implements ⊙: given plaintext coefficients xs and an encrypted
// vector cs of equal length, it returns Enc(Σ xs[i]·m_i). Zero coefficients
// are skipped, which matters for the sparse indicator vectors of PPGNN.
// The product Π cs[i]^{xs[i]} runs through the kernel's interleaved
// multi-exponentiation, sharing one squaring chain across all δ' terms;
// the result is byte-identical to the reference per-term loop.
func (pk *PublicKey) DotProduct(xs []*big.Int, cs []*Ciphertext) (*Ciphertext, error) {
	s, bases, exps, err := pk.dotInputs([][]*big.Int{xs}, cs)
	if err != nil {
		return nil, err
	}
	acc, err := pk.Ctx(s+1).MultiExp(bases, exps[0])
	if err != nil {
		return nil, fmt.Errorf("paillier: dot product: %w", err)
	}
	return &Ciphertext{C: acc, S: s}, nil
}

// MatSelect implements the homomorphic matrix multiplication ⨂ of Theorem
// 3.1: A is an m×d plaintext matrix given row-major (A[i] is row i) and v an
// encrypted column vector of length d; the result is the encrypted m-vector
// A·v. When v is an indicator vector this privately selects a column of A.
// It is MatSelectBatch on a one-wide pool: the rows share one table set
// of v and run in order.
func (pk *PublicKey) MatSelect(a [][]*big.Int, v []*Ciphertext) ([]*Ciphertext, error) {
	return pk.MatSelectBatch(context.Background(), parallel.New(1), a, v)
}

// Decrypt recovers the plaintext of c. The Damgård–Jurik decryption
// removes the randomness with an exponent that kills its order and then
// extracts a discrete log; the key holder does both per prime (crt.go):
// c^{p−1} mod p^{s+1} and c^{q−1} mod q^{s+1}, logs to bases 1+p and
// 1+q, and the CRT of m mod p^s and m mod q^s.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if c.S < 1 || c.S > MaxS {
		return nil, fmt.Errorf("paillier: ciphertext degree %d out of range", c.S)
	}
	mod := sk.NS(c.S + 1)
	if c.C.Sign() <= 0 || c.C.Cmp(mod) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	return sk.decryptCRT(c.C, c.S)
}

// DecryptLayered peels off `layers` nested encryptions: the innermost
// plaintext of Enc_s1(Enc_s2(...m)). PPGNN-OPT produces [[ [a] ]] — an ε_2
// encryption whose plaintext is an ε_1 ciphertext — which this unwraps with
// DecryptLayered(c, 2) using degrees (2, 1).
func (sk *PrivateKey) DecryptLayered(c *Ciphertext, layers int) (*big.Int, error) {
	if layers < 1 {
		return nil, errors.New("paillier: layers must be >= 1")
	}
	cur := c
	for l := 0; l < layers; l++ {
		m, err := sk.Decrypt(cur)
		if err != nil {
			return nil, fmt.Errorf("paillier: layer %d: %w", l, err)
		}
		if l == layers-1 {
			return m, nil
		}
		if cur.S < 2 {
			return nil, errors.New("paillier: inner layer has no room for a ciphertext")
		}
		cur = &Ciphertext{C: m, S: cur.S - 1}
	}
	panic("unreachable")
}

// logOnePlusN computes x such that u = (1+N)^x mod N^{s+1}, x in [0, N^s)
// (dlog, crt.go). It needs only public information, which is what lets
// threshold share combination (threshold.go) run without the private key.
func (pk *PublicKey) logOnePlusN(u *big.Int, s int) (*big.Int, error) {
	return dlog(u, s, pk.NS, pk.invFactorial)
}

// CiphertextByteLen returns the serialized size in bytes of a degree-s
// ciphertext under this key: an element of Z_{N^{s+1}} occupies (s+1)·|N|
// bytes. The paper's L_e is CiphertextByteLen(1).
func (pk *PublicKey) CiphertextByteLen(s int) int {
	return (s + 1) * ((pk.N.BitLen() + 7) / 8)
}

// Bytes serializes the ciphertext value zero-padded to the key's fixed
// length so that message sizes are deterministic.
func (c *Ciphertext) Bytes(pk *PublicKey) []byte {
	buf := make([]byte, pk.CiphertextByteLen(c.S))
	c.C.FillBytes(buf)
	return buf
}

// CiphertextFromBytes reverses Ciphertext.Bytes.
func CiphertextFromBytes(b []byte, s int) *Ciphertext {
	return &Ciphertext{C: new(big.Int).SetBytes(b), S: s}
}
