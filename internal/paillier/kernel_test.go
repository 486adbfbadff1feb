package paillier

import (
	"bytes"
	"context"
	"math/big"
	mrand "math/rand"
	"testing"
)

// Tests for the modmath kernel integration: NS/Ctx cache behavior, the
// kernel-on/kernel-off byte-equality contract on ⊙/⨂/combine, and the
// opt-in short-exponent randomness mode (Options.ShortRandBits).

// freshKey generates a key private to one test, so mode switches
// (SetOptions, SetKernel) never leak into the shared cached key.
func freshKey(t testing.TB) *PrivateKey {
	t.Helper()
	k, err := GenerateKey(nil, testKeyBits)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return k
}

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

// withKernelOff runs f with the kernel fast paths disabled, restoring the
// previous setting afterwards.
func withKernelOff(t *testing.T, f func()) {
	t.Helper()
	prev := SetKernel(false)
	defer SetKernel(prev)
	f()
}

// TestDotProductKernelEquivalence pins the exactness contract end to end:
// ⊙ and ⨂ produce byte-identical ciphertexts with the kernel on and off,
// including negative and zero coefficients.
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
		on, err := k.DotProduct(xs, cs)
		if err != nil {
			t.Fatal(err)
		}
		var off *Ciphertext
		withKernelOff(t, func() {
			off, err = k.DotProduct(xs, cs)
		})
		if err != nil {
			t.Fatal(err)
		}
		if on.C.Cmp(off.C) != 0 {
			t.Fatalf("s=%d: kernel and reference ⊙ differ", s)
		}

		// ⨂ over a few rows of the same shapes.
		rows := [][]*big.Int{xs, xs[:n], xs}
		vOn, err := k.MatSelect(rows, cs)
		if err != nil {
			t.Fatal(err)
		}
		var vOff []*Ciphertext
		withKernelOff(t, func() {
			vOff, err = k.MatSelect(rows, cs)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range vOn {
			if vOn[i].C.Cmp(vOff[i].C) != 0 {
				t.Fatalf("s=%d row %d: kernel and reference ⨂ differ", s, i)
			}
		}
	}
}

// TestCombineKernelEquivalence drives threshold share combination — whose
// Lagrange exponents exercise the negative-coefficient inversion path —
// through both kernel settings at s=1 and s=2.
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
		var off *big.Int
		withKernelOff(t, func() {
			off, err = tk.Combine(ds)
		})
		if err != nil {
			t.Fatal(err)
		}
		if on.Cmp(off) != 0 {
			t.Fatalf("s=%d: kernel and reference combine differ", s)
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

func TestSetOptionsValidation(t *testing.T) {
	k := freshKey(t)
	if err := k.SetOptions(Options{ShortRandBits: 8}); err == nil {
		t.Error("ShortRandBits=8 accepted")
	}
	if err := k.SetOptions(Options{ShortRandBits: k.N.BitLen()}); err == nil {
		t.Error("full-width ShortRandBits accepted")
	}
	if k.ShortRandBits() != 0 {
		t.Errorf("failed SetOptions left ShortRandBits=%d", k.ShortRandBits())
	}
	if err := k.SetOptions(Options{ShortRandBits: 64}); err != nil {
		t.Fatalf("SetOptions(64): %v", err)
	}
	if k.ShortRandBits() != 64 {
		t.Errorf("ShortRandBits() = %d, want 64", k.ShortRandBits())
	}
	if err := k.SetOptions(Options{}); err != nil {
		t.Fatalf("disabling: %v", err)
	}
	if k.ShortRandBits() != 0 {
		t.Errorf("ShortRandBits() = %d after disable, want 0", k.ShortRandBits())
	}
}

// TestShortRandRoundTrip: with short-exponent randomness on, every
// homomorphic identity still yields the exact plaintext — the mode changes
// the assumption, never the answer.
func TestShortRandRoundTrip(t *testing.T) {
	k := freshKey(t)
	if err := k.SetOptions(Options{ShortRandBits: 64}); err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(31))
	for s := 1; s <= 2; s++ {
		ns := k.NS(s)
		for _, m := range []*big.Int{
			new(big.Int),
			big.NewInt(424242),
			new(big.Int).Sub(ns, one),
		} {
			ct, err := k.Encrypt(rng, m, s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(m) != 0 {
				t.Fatalf("s=%d: short-rand roundtrip = %v, want %v", s, got, m)
			}
			// Homomorphic ops on short-rand ciphertexts.
			ct2, err := k.Rerandomize(rng, ct)
			if err != nil {
				t.Fatal(err)
			}
			got, err = k.Decrypt(ct2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(m) != 0 {
				t.Fatalf("s=%d: short-rand rerandomize = %v, want %v", s, got, m)
			}
		}
	}
}

// TestShortRandBatchDeterminism: batch encryption in short-rand mode
// consumes a seeded reader exactly like the serial loop (DESIGN.md §10's
// determinism contract extends to the new randomness mode).
func TestShortRandBatchDeterminism(t *testing.T) {
	k := freshKey(t)
	if err := k.SetOptions(Options{ShortRandBits: 64}); err != nil {
		t.Fatal(err)
	}
	const n = 9
	rng := mrand.New(mrand.NewSource(5))
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = new(big.Int).Rand(rng, k.NS(1))
	}
	serial := make([]*Ciphertext, n)
	sRand := mrand.New(mrand.NewSource(6))
	for i := range ms {
		ct, err := k.Encrypt(sRand, ms[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = ct
	}
	batch, err := k.EncryptBatch(context.Background(), batchPool(), mrand.New(mrand.NewSource(6)), ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Bytes(&k.PublicKey), batch[i].Bytes(&k.PublicKey)) {
			t.Fatalf("short-rand batch ciphertext %d differs from serial", i)
		}
	}
}

// TestShortRandPrecompute: the offline pool draws and applies short
// exponents when the mode is on, and pooled vs online ciphertexts both
// decrypt to the exact plaintext.
func TestShortRandPrecompute(t *testing.T) {
	k := freshKey(t)
	if err := k.SetOptions(Options{ShortRandBits: 64}); err != nil {
		t.Fatal(err)
	}
	pre, err := k.NewPrecomputer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Fill(mrand.New(mrand.NewSource(9)), 3); err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(10))
	for i := 0; i < 5; i++ { // 3 pooled, then 2 online
		m := big.NewInt(int64(1000 + i))
		ct, fromPool, err := pre.Encrypt(rng, m)
		if err != nil {
			t.Fatal(err)
		}
		if wantPool := i < 3; fromPool != wantPool {
			t.Errorf("encryption %d fromPool=%v, want %v", i, fromPool, wantPool)
		}
		got, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("pooled short-rand roundtrip %d = %v, want %v", i, got, m)
		}
	}
}
