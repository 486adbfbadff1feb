package paillier

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// TestGenPrime checks the key primes at sizes from the 16-bit key's
// 8-bit halves up: exactly b bits with the top two set, prime, p−1 the
// product of the returned primes alone, and g the smallest element of
// order exactly p−1. Below 2^9 the order is also counted by brute force,
// so hasFullOrder is itself checked both ways. g² — of order (p−1)/2,
// since 2 | p−1 — must fail the order test.
func TestGenPrime(t *testing.T) {
	rng := mrand.New(mrand.NewSource(46))
	for _, b := range []int{8, 9, 12, 32, 33, 96, 128, 256} {
		for trial := 0; trial < 3; trial++ {
			p, g, factors, err := genPrime(rng, b)
			if err != nil {
				t.Fatal(err)
			}
			if p.BitLen() != b || p.Bit(b-2) != 1 || !p.ProbablyPrime(20) {
				t.Fatalf("b=%d: p=%v is not a b-bit prime with its top two bits set", b, p)
			}
			pm1 := new(big.Int).Sub(p, one)
			rest := new(big.Int).Set(pm1)
			for _, f := range factors {
				if !f.ProbablyPrime(20) {
					t.Fatalf("b=%d: factor %v of p−1 is not prime", b, f)
				}
				for new(big.Int).Mod(rest, f).Sign() == 0 {
					rest.Div(rest, f)
				}
			}
			if rest.Cmp(one) != 0 {
				t.Fatalf("b=%d: p−1 = %v has a factor %v outside %v", b, pm1, rest, factors)
			}
			if !hasFullOrder(g, p, pm1, factors) {
				t.Fatalf("b=%d: g=%v does not generate Z*_%v", b, g, p)
			}
			for h := big.NewInt(2); h.Cmp(g) < 0; h.Add(h, one) {
				if hasFullOrder(h, p, pm1, factors) {
					t.Fatalf("b=%d: %v generates Z*_%v but g=%v was kept", b, h, p, g)
				}
			}
			g2 := new(big.Int).Exp(g, big.NewInt(2), p)
			if hasFullOrder(g2, p, pm1, factors) {
				t.Fatalf("b=%d: g²=%v passed the order test", b, g2)
			}
			if b <= 9 {
				for _, h := range []*big.Int{g, g2} {
					if got, want := order(h, p) == p.Int64()-1, hasFullOrder(h, p, pm1, factors); got != want {
						t.Fatalf("b=%d: %v has order %d mod %v, order test says %v", b, h, order(h, p), p, want)
					}
				}
			}
		}
	}
}

// order counts the multiplicative order of h mod a small prime p.
func order(h, p *big.Int) int64 {
	x := new(big.Int).Set(h)
	n := int64(1)
	for x.Cmp(one) != 0 {
		x.Mul(x, h).Mod(x, p)
		n++
	}
	return n
}

// TestGenerateKeySizes runs GenerateKey at every size the tests and the
// protocol use, down to the 16-bit minimum: N has exactly the asked
// width, and a key from each encrypts and decrypts at s = 1 and 2.
func TestGenerateKeySizes(t *testing.T) {
	for _, bits := range []int{16, 17, 24, 64, 192, 256, 301, 512} {
		k, err := GenerateKey(nil, bits)
		if err != nil {
			t.Fatalf("%d-bit: %v", bits, err)
		}
		if k.N.BitLen() != bits {
			t.Fatalf("%d-bit key has a %d-bit N", bits, k.N.BitLen())
		}
		for s := 1; s <= 2; s++ {
			m := big.NewInt(int64(bits) * 97)
			ct, err := k.Encrypt(nil, m, s)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := k.Decrypt(ct); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%d-bit s=%d: decrypts to %v (%v), want %v", bits, s, got, err, m)
			}
		}
	}
}

// TestSeededKeygenRepeats: key generation reads its randomness only from
// the reader it is given, so the same seed gives the same modulus, sole
// and threshold key alike, and the prime draw keeps rand.Prime's shape.
func TestSeededKeygenRepeats(t *testing.T) {
	seeded := func() *mrand.Rand { return mrand.New(mrand.NewSource(5)) }
	var sole, thres *big.Int
	for i := 0; i < 4; i++ {
		k, err := GenerateKey(seeded(), 512)
		if err != nil {
			t.Fatal(err)
		}
		tk, _, err := GenerateThresholdKey(seeded(), 128, 3, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			sole, thres = k.N, tk.N
		} else if k.N.Cmp(sole) != 0 || tk.N.Cmp(thres) != 0 {
			t.Fatalf("call %d under seed 5 drew a different modulus", i+1)
		}
	}
	rng := seeded()
	for _, bits := range []int{2, 3, 8, 9, 17, 64, 255} {
		p, err := randPrime(rng, bits)
		if err != nil {
			t.Fatal(err)
		}
		if p.BitLen() != bits || p.Bit(bits-2) != 1 || !p.ProbablyPrime(20) {
			t.Fatalf("randPrime(%d) = %v: not a %d-bit prime with its top two bits set", bits, p, bits)
		}
	}
}
