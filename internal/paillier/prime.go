package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// cofactorBits caps the width of the random cofactor R in a key prime
// p = 2·R·p′ + 1. Trial division factors R (at most cofactorBits+1 bits)
// in at most 2^{(cofactorBits+1)/2} steps, and the large prime p′ keeps
// p−1 far from smooth, so Pollard's p−1 method gains nothing.
const cofactorBits = 32

// genPrime returns a prime p of exactly b ≥ 8 bits, with its two top bits
// set (so two such primes multiply to a full-width modulus), together
// with the prime factors of p−1 and the smallest generator g of Z*_p.
//
// The construction is Shawe–Taylor style (FIPS 186-4, Appendix C.6): a
// random prime p′ of about b − cofactorBits bits, then p = 2·R·p′ + 1
// for R stepping from a random start through the range that keeps p in
// [3·2^{b−2}, 2^b). Knowing p−1 = 2·R·p′ with R factored is what lets
// the key holder find a generator, and so encrypt from a fixed base in
// each CRT half (crt.go).
func genPrime(random io.Reader, b int) (p, g *big.Int, factors []*big.Int, err error) {
	// Half the width for small primes keeps a few R per p′ in range.
	rBits := min(cofactorBits, b/2)
	lo := new(big.Int).Lsh(big.NewInt(3), uint(b-2)) // 3·2^{b−2}
	hi := new(big.Int).Lsh(one, uint(b))
	for {
		pp, err := randPrime(random, b-1-rBits)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("paillier: drawing p′: %w", err)
		}
		// R ∈ [⌈(lo−1)/2p′⌉, ⌊(hi−2)/2p′⌋] keeps lo ≤ 2·R·p′+1 < hi; both
		// bounds are below 2^{rBits+2}.
		twoPP := new(big.Int).Lsh(pp, 1)
		t := new(big.Int).Add(lo, twoPP)
		rLo := t.Sub(t, big.NewInt(2)).Div(t, twoPP).Uint64()
		t.Sub(hi, big.NewInt(2))
		rHi := t.Div(t, twoPP).Uint64()
		if rHi < rLo {
			continue
		}
		span := rHi - rLo + 1
		start, err := rand.Int(random, new(big.Int).SetUint64(span))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("paillier: drawing R: %w", err)
		}
		// Above the sieve's largest prime, a candidate with a small factor
		// is skipped before the Miller–Rabin rounds.
		var residues []uint64
		if b > sieveBits+1 {
			residues = make([]uint64, len(sievePrimes()))
			for i, l := range sievePrimes() {
				residues[i] = t.Mod(twoPP, t.SetUint64(l)).Uint64()
			}
		}
		// Step R through the range from a random start, wrapping at most
		// once; a p′ whose range holds no prime within 64·b steps is
		// redrawn.
		cand := new(big.Int)
	search:
		for i := range min(uint64(64*b), span) {
			r := rLo + (start.Uint64()+i)%span
			for k, l := range sievePrimes()[:len(residues)] {
				if (residues[k]*(r%l)+1)%l == 0 {
					continue search
				}
			}
			cand.SetUint64(r).Mul(cand, twoPP).Add(cand, one)
			if cand.ProbablyPrime(20) {
				factors := append([]*big.Int{big.NewInt(2), pp}, smallPrimeFactors(r)...)
				return cand, generator(cand, factors), factors, nil
			}
		}
	}
}

// randPrime returns a random prime of exactly bits ≥ 2 bits with its two
// top bits set, as crypto/rand.Prime does. Unlike rand.Prime, which may
// read one extra byte at random, it reads the same bytes every time from
// the same reader, so a seeded reader gives the same key twice.
func randPrime(random io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, err
		}
		p.SetBytes(buf).Rsh(p, uint(8*len(buf)-bits))
		p.SetBit(p, bits-1, 1).SetBit(p, bits-2, 1).SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// sieveBits bounds the odd primes genPrime sieves candidates by.
const sieveBits = 12

// sievePrimes lists the odd primes below 2^sieveBits.
var sievePrimes = sync.OnceValue(func() []uint64 {
	const n = 1 << sieveBits
	var composite [n]bool
	var ps []uint64
	for i := 3; i < n; i += 2 {
		if !composite[i] {
			ps = append(ps, uint64(i))
			for j := i * i; j < n; j += 2 * i {
				composite[j] = true
			}
		}
	}
	return ps
})

// smallPrimeFactors returns the distinct prime factors of r by trial
// division.
func smallPrimeFactors(r uint64) []*big.Int {
	var fs []*big.Int
	for d := uint64(2); d*d <= r; d++ {
		if r%d == 0 {
			fs = append(fs, new(big.Int).SetUint64(d))
			for r%d == 0 {
				r /= d
			}
		}
	}
	if r > 1 {
		fs = append(fs, new(big.Int).SetUint64(r))
	}
	return fs
}

// generator returns the smallest g ≥ 2 of order exactly p−1 mod p, given
// every prime factor of p−1 (repeats are harmless).
func generator(p *big.Int, factors []*big.Int) *big.Int {
	pm1 := new(big.Int).Sub(p, one)
	for g := big.NewInt(2); ; g.Add(g, one) {
		if hasFullOrder(g, p, pm1, factors) {
			return g
		}
	}
}

// hasFullOrder reports g^{(p−1)/f} ≢ 1 (mod p) for every prime f | p−1:
// g generates Z*_p exactly when no maximal proper subgroup contains it.
func hasFullOrder(g, p, pm1 *big.Int, factors []*big.Int) bool {
	e := new(big.Int)
	for _, f := range factors {
		e.Div(pm1, f)
		if e.Exp(g, e, p).Cmp(one) == 0 {
			return false
		}
	}
	return true
}
