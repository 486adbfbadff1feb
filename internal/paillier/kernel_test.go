package paillier

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// Tests for the modmath kernel integration: NS/Ctx cache behavior and
// ⊙/⨂/combine on the kernel against plain big.Int arithmetic.

// TestNSLookupZeroAllocs pins the satellite contract that after first use,
// NS is one atomic load: no locks, no allocations.
func TestNSLookupZeroAllocs(t *testing.T) {
	k := key(t)
	for s := 0; s <= 3; s++ {
		k.NS(s) // warm
	}
	allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s <= 3; s++ {
			k.NS(s)
		}
	})
	if allocs != 0 {
		t.Errorf("warm NS lookups allocate %v times per run, want 0", allocs)
	}
}

func TestNSMatchesDirectPower(t *testing.T) {
	k := key(t)
	if k.NS(0).Cmp(one) != 0 {
		t.Errorf("NS(0) = %v, want 1", k.NS(0))
	}
	for s := 1; s <= MaxS+1; s++ {
		want := new(big.Int).Exp(k.N, big.NewInt(int64(s)), nil)
		if k.NS(s).Cmp(want) != 0 {
			t.Errorf("NS(%d) != N^%d", s, s)
		}
		if k.Ctx(s).M != k.NS(s) {
			t.Errorf("Ctx(%d).M and NS(%d) are different objects", s, s)
		}
	}
}

func TestCtxPanicsOutOfRange(t *testing.T) {
	k := key(t)
	for _, s := range []int{-1, 0, MaxS + 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ctx(%d) did not panic", s)
				}
			}()
			k.Ctx(s)
		}()
	}
}

func BenchmarkNSLookup(b *testing.B) {
	k := key(b)
	k.NS(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.NS(2)
	}
}

// dotProductRef is ⊙ computed term by term with big.Int.Exp:
// ∏ c_i^(x_i mod N^s) mod N^(s+1).
func dotProductRef(k *PublicKey, xs []*big.Int, cs []*Ciphertext, s int) *big.Int {
	mod, ns := k.NS(s+1), k.NS(s)
	acc := big.NewInt(1)
	for i, c := range cs {
		e := new(big.Int).Mod(xs[i], ns)
		acc.Mul(acc, new(big.Int).Exp(c.C, e, mod))
		acc.Mod(acc, mod)
	}
	return acc
}

// TestDotProductKernelEquivalence pins the exactness contract end to end:
// ⊙ and ⨂ on the modmath kernel produce the ciphertexts a per-term
// big.Int.Exp product does, including negative and zero coefficients.
func TestDotProductKernelEquivalence(t *testing.T) {
	for name, pk := range encKeys(key(t)) {
		t.Run(name, func(t *testing.T) { dotProductKernelEquivalence(t, pk) })
	}
}

func dotProductKernelEquivalence(t *testing.T, k *PublicKey) {
	rng := mrand.New(mrand.NewSource(21))
	for s := 1; s <= 2; s++ {
		ns := k.NS(s)
		n := 12
		xs := make([]*big.Int, n)
		cs := make([]*Ciphertext, n)
		for i := range cs {
			m := new(big.Int).Rand(rng, ns)
			ct, err := k.Encrypt(nil, m, s)
			if err != nil {
				t.Fatal(err)
			}
			cs[i] = ct
			switch i % 4 {
			case 0:
				xs[i] = new(big.Int) // zero coefficient
			case 1:
				xs[i] = big.NewInt(-int64(rng.Intn(1000) + 1)) // negative
			default:
				xs[i] = new(big.Int).Rand(rng, ns)
			}
		}
		got, err := k.DotProduct(xs, cs)
		if err != nil {
			t.Fatal(err)
		}
		if got.C.Cmp(dotProductRef(k, xs, cs, s)) != 0 {
			t.Fatalf("s=%d: kernel and reference ⊙ differ", s)
		}

		// ⨂ over two rows: xs and its reverse.
		rev := make([]*big.Int, n)
		for i, x := range xs {
			rev[n-1-i] = x
		}
		rows := [][]*big.Int{xs, rev}
		v, err := k.MatSelect(rows, cs)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if v[i].C.Cmp(dotProductRef(k, row, cs, s)) != 0 {
				t.Fatalf("s=%d row %d: kernel and reference ⨂ differ", s, i)
			}
		}
	}
}

// TestCombineKernelEquivalence drives threshold share combination on the
// modmath kernel — whose Lagrange exponents exercise the
// negative-coefficient inversion path — at s=1 and s=2, and checks it
// recovers the plaintext.
func TestCombineKernelEquivalence(t *testing.T) {
	tk, shares := thresholdKey(t)
	for s := 1; s <= 2; s++ {
		m := big.NewInt(987654)
		ct, err := tk.Encrypt(nil, m, s)
		if err != nil {
			t.Fatal(err)
		}
		var ds []*DecryptionShare
		for _, sh := range shares[:tk.T] {
			d, err := tk.PartialDecrypt(sh, ct)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
		}
		on, err := tk.Combine(ds)
		if err != nil {
			t.Fatal(err)
		}
		if on.Cmp(m) != 0 {
			t.Fatalf("s=%d: combine = %v, want %v", s, on, m)
		}
	}
}

// TestExpLambdaCRTDegree2 checks the CRT fast path against a direct
// full-width exponentiation at s ≥ 2 (kernel contexts live under both).
func TestExpLambdaCRTDegree2(t *testing.T) {
	k := key(t)
	rng := mrand.New(mrand.NewSource(23))
	for s := 1; s <= 3; s++ {
		mod := k.NS(s + 1)
		for trial := 0; trial < 3; trial++ {
			c := new(big.Int).Rand(rng, mod)
			got := k.expLambdaCRT(c, s)
			want := new(big.Int).Exp(c, k.lambda, mod)
			if got.Cmp(want) != 0 {
				t.Fatalf("s=%d: expLambdaCRT != direct Exp", s)
			}
		}
	}
}
