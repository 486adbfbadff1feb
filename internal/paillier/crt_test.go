package paillier

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"ppgnn/internal/parallel"
)

// The λ-path decryption, kept as the oracle of the per-prime one:
// c^λ = (1+N)^{λ·m} mod N^{s+1} (computed per CRT half), its log to base
// 1+N, and λ⁻¹ mod N^s.
func (sk *PrivateKey) decryptLambda(c *Ciphertext) (*big.Int, error) {
	x, err := sk.logOnePlusN(sk.expLambdaCRT(c.C, c.S), c.S)
	if err != nil {
		return nil, err
	}
	x.Mul(x, sk.invLambda(c.S))
	return x.Mod(x, sk.NS(c.S)), nil
}

// expLambdaCRT computes c^λ mod N^{s+1} via the factorization.
func (sk *PrivateKey) expLambdaCRT(c *big.Int, s int) *big.Int {
	ctx := sk.crt(s)
	up := ctx.pCtx.Exp(new(big.Int).Mod(c, ctx.pCtx.M), sk.lambda)
	uq := ctx.qCtx.Exp(new(big.Int).Mod(c, ctx.qCtx.M), sk.lambda)
	return ctx.combine(up, uq)
}

// invLambda returns λ⁻¹ mod N^s.
func (sk *PrivateKey) invLambda(s int) *big.Int {
	return new(big.Int).ModInverse(sk.lambda, sk.NS(s))
}

// TestDecryptMatchesLambdaOracle decrypts random units of Z*_{N^{s+1}} —
// every unit encrypts some plaintext — per prime and through the λ
// oracle, for s = 1..3, and checks that a value sharing a factor with N
// is rejected on both paths.
func TestDecryptMatchesLambdaOracle(t *testing.T) {
	k := key(t)
	rng := mrand.New(mrand.NewSource(47))
	for s := 1; s <= 3; s++ {
		mod := k.NS(s + 1)
		for trial := 0; trial < 8; trial++ {
			c := new(big.Int).Rand(rng, mod)
			if new(big.Int).GCD(nil, nil, c, k.N).Cmp(one) != 0 {
				continue
			}
			ct := &Ciphertext{C: c, S: s}
			got, err := k.Decrypt(ct)
			if err != nil {
				t.Fatalf("s=%d: %v", s, err)
			}
			want, err := k.decryptLambda(ct)
			if err != nil {
				t.Fatalf("s=%d oracle: %v", s, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("s=%d: per-prime decryption %v, λ oracle %v", s, got, want)
			}
		}
		for _, f := range []*big.Int{k.P, k.Q} {
			ct := &Ciphertext{C: new(big.Int).Mul(f, big.NewInt(int64(2+rng.Intn(1000)))), S: s}
			if _, err := k.Decrypt(ct); err == nil {
				t.Fatalf("s=%d: a multiple of a prime factor decrypted", s)
			}
			if _, err := k.decryptLambda(ct); err == nil {
				t.Fatalf("s=%d: the λ oracle decrypted a multiple of a prime factor", s)
			}
		}
	}
}

// FuzzDecryptCRT cross-checks the per-prime decryption against the λ
// oracle on fuzz-chosen units and degrees under one fixed key.
func FuzzDecryptCRT(f *testing.F) {
	k, err := GenerateKey(mrand.New(mrand.NewSource(48)), 128)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{2}, uint8(1))
	f.Add([]byte{0xff, 0x13, 0x77, 0x01}, uint8(2))
	f.Add([]byte{1}, uint8(3))
	f.Fuzz(func(t *testing.T, cBytes []byte, deg uint8) {
		s := 1 + int(deg)%3
		c := new(big.Int).SetBytes(cBytes)
		c.Mod(c, k.NS(s+1))
		if new(big.Int).GCD(nil, nil, c, k.N).Cmp(one) != 0 {
			t.Skip()
		}
		ct := &Ciphertext{C: c, S: s}
		got, err := k.Decrypt(ct)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		want, err := k.decryptLambda(ct)
		if err != nil {
			t.Fatalf("s=%d oracle: %v", s, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("s=%d c=%v: per-prime %v, λ oracle %v", s, c, got, want)
		}
	})
}

// The CRT-accelerated c^λ must agree with the direct exponentiation for
// every degree.
func TestExpLambdaCRTMatchesDirect(t *testing.T) {
	k := key(t)
	for s := 1; s <= 3; s++ {
		mod := k.NS(s + 1)
		for i := 0; i < 10; i++ {
			c, err := rand.Int(rand.Reader, mod)
			if err != nil {
				t.Fatal(err)
			}
			if c.Sign() == 0 {
				continue
			}
			want := new(big.Int).Exp(c, k.lambda, mod)
			got := k.expLambdaCRT(c, s)
			if got.Cmp(want) != 0 {
				t.Fatalf("s=%d: CRT exponentiation mismatch", s)
			}
		}
	}
}

func TestCRTDecryptionFreshKey(t *testing.T) {
	// A fresh key (no warmed caches) must still decrypt correctly via CRT.
	k, err := GenerateKey(nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		m := big.NewInt(987654321)
		ct, err := k.Encrypt(nil, m, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("s=%d: decrypt = %v", s, got)
		}
	}
}

// TestCombFactorInH checks the key holder's fixed-base factor at several
// key sizes and degrees. Every factor must lie in H, the N^s-th residues,
// which is what makes it an encryption of zero: f^λ ≡ 1 (mod N^{s+1}).
// Each CRT half must be the comb's G^a with G ≡ g (mod p), so the factor
// reduces to g_p^a mod p and g_q^b mod q for the split of its draw.
func TestCombFactorInH(t *testing.T) {
	rng := mrand.New(mrand.NewSource(41))
	for _, bits := range []int{64, 256, 301, 512} {
		k, err := GenerateKey(nil, bits)
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s <= 3; s++ {
			mod := k.NS(s + 1)
			for trial := 0; trial < 4; trial++ {
				x, err := k.drawEncRand(rng)
				if err != nil {
					t.Fatal(err)
				}
				if x.Sign() < 0 || x.Cmp(k.phi) >= 0 {
					t.Fatalf("%d-bit: draw %v outside [0, (p−1)(q−1))", bits, x)
				}
				f := k.combFactor(k.encCombs(s, 1), x)
				if f.Sign() <= 0 || f.Cmp(mod) >= 0 {
					t.Fatalf("%d-bit s=%d: factor outside [1, N^{s+1})", bits, s)
				}
				if new(big.Int).Exp(f, k.lambda, mod).Cmp(one) != 0 {
					t.Fatalf("%d-bit s=%d: factor^λ != 1 mod N^{s+1}", bits, s)
				}
				b, a := new(big.Int).QuoRem(x, k.pm1, new(big.Int))
				if new(big.Int).Mod(f, k.P).Cmp(new(big.Int).Exp(k.gp, a, k.P)) != 0 ||
					new(big.Int).Mod(f, k.Q).Cmp(new(big.Int).Exp(k.gq, b, k.Q)) != 0 {
					t.Fatalf("%d-bit s=%d: factor halves are not g_p^a, g_q^b", bits, s)
				}
			}
		}
	}
}

// TestCombFactorCoversH draws factors under a 16-bit key, whose primes
// are small enough to enumerate: the factors mod p must take every value
// of Z*_p, and likewise mod q. A base that generates only a subgroup —
// g² has order (p−1)/2 — would leave at least half of Z*_p unseen.
func TestCombFactorCoversH(t *testing.T) {
	k, err := GenerateKey(mrand.New(mrand.NewSource(44)), 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(45))
	seenP, seenQ := map[int64]bool{}, map[int64]bool{}
	for i := 0; i < 4000; i++ {
		x, err := k.drawEncRand(rng)
		if err != nil {
			t.Fatal(err)
		}
		f := k.encFactor(x, 1)
		seenP[new(big.Int).Mod(f, k.P).Int64()] = true
		seenQ[new(big.Int).Mod(f, k.Q).Int64()] = true
	}
	if int64(len(seenP)) != k.pm1.Int64() || int64(len(seenQ)) != k.Q.Int64()-1 {
		t.Fatalf("factors cover %d of Z*_%v and %d of Z*_%v, want all",
			len(seenP), k.P, len(seenQ), k.Q)
	}
}

// TestEncFactorPaths is the in-package assertion of which keys take the
// fixed-base CRT path: only a key from GenerateKey, whose factor is
// CRT(G_p^a mod p^{s+1}, G_q^b mod q^{s+1}) recomputed here with
// big.Int.Exp. A NewPublicKey and a threshold key keep r^{N^s} exactly.
func TestEncFactorPaths(t *testing.T) {
	k := key(t)
	pub := NewPublicKey(k.N)
	tk, _ := thresholdKey(t)
	if k.sk != k || pub.sk != nil || tk.sk != nil {
		t.Fatalf("factorization links: GenerateKey %v, NewPublicKey %v, threshold %v",
			k.sk != nil, pub.sk != nil, tk.sk != nil)
	}
	rng := mrand.New(mrand.NewSource(43))
	for s := 1; s <= 2; s++ {
		sBig := big.NewInt(int64(s))
		pPow := new(big.Int).Exp(k.P, big.NewInt(int64(s+1)), nil)
		qPow := new(big.Int).Exp(k.Q, big.NewInt(int64(s+1)), nil)
		gP := new(big.Int).Exp(k.gp, new(big.Int).Exp(k.P, sBig, nil), pPow)
		gQ := new(big.Int).Exp(k.gq, new(big.Int).Exp(k.Q, sBig, nil), qPow)
		comb := func(x *big.Int) bool {
			f := k.encFactor(x, s)
			b, a := new(big.Int).QuoRem(x, k.pm1, new(big.Int))
			return new(big.Int).Mod(f, pPow).Cmp(new(big.Int).Exp(gP, a, pPow)) == 0 &&
				new(big.Int).Mod(f, qPow).Cmp(new(big.Int).Exp(gQ, b, qPow)) == 0
		}
		x, err := k.drawEncRand(rng)
		if err != nil {
			t.Fatal(err)
		}
		if !comb(x) {
			t.Fatalf("GenerateKey s=%d: factor left the fixed-base CRT path", s)
		}
		for _, c := range []struct {
			name string
			pk   *PublicKey
		}{{"NewPublicKey", pub}, {"threshold", &tk.PublicKey}} {
			r, err := c.pk.drawEncRand(rng)
			if err != nil {
				t.Fatal(err)
			}
			if new(big.Int).GCD(nil, nil, r, c.pk.N).Cmp(one) != 0 {
				t.Fatalf("%s: draw is not a unit of Z_N", c.name)
			}
			if c.pk.encFactor(r, s).Cmp(c.pk.Ctx(s+1).Exp(r, c.pk.NS(s))) != 0 {
				t.Fatalf("%s s=%d: factor left r^{N^s}", c.name, s)
			}
		}
	}
}

// TestBatchFactorsExact checks the key holder's batch factors value for
// value: under a seeded reader, every factor that EncryptBatch,
// RerandomizeBatch, Precomputer.FillCtx and EncCache.EncryptBatch make
// for B ∈ {1, 7, 16, 101} at pool widths 1 and 4 must equal
// CRT(G_p^a, G_q^b) for the reader's draws, recomputed with big.Int.Exp.
// At 1024-bit keys the batch sizes fall on both sides of the batch comb's
// switch (29 factors at s = 1, 16 at s = 2), so both the cached combs and
// the batch combs are checked.
func TestBatchFactorsExact(t *testing.T) {
	k, err := GenerateKey(mrand.New(mrand.NewSource(46)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const seed = 47
	for s := 1; s <= 2; s++ {
		sBig := big.NewInt(int64(s))
		pPow := new(big.Int).Exp(k.P, big.NewInt(int64(s+1)), nil)
		qPow := new(big.Int).Exp(k.Q, big.NewInt(int64(s+1)), nil)
		gP := new(big.Int).Exp(k.gp, new(big.Int).Exp(k.P, sBig, nil), pPow)
		gQ := new(big.Int).Exp(k.gq, new(big.Int).Exp(k.Q, sBig, nil), qPow)
		coef := new(big.Int).ModInverse(pPow, qPow)
		for _, n := range []int{1, 7, 16, 101} {
			batchComb := n >= 29 || s == 2 && n >= 16
			d, err := k.encFactors(nil, mrand.New(mrand.NewSource(seed)), n, s)
			if err != nil {
				t.Fatal(err)
			}
			if c := d.combs; (c.gp != c.ctx.gp) != batchComb || (c.gq != c.ctx.gq) != batchComb {
				t.Fatalf("s=%d B=%d: batch combs = %v/%v, want %v", s, n, c.gp != c.ctx.gp, c.gq != c.ctx.gq, batchComb)
			}
			rng := mrand.New(mrand.NewSource(seed))
			want := make([]*big.Int, n)
			for i := range want {
				x, err := k.drawEncRand(rng)
				if err != nil {
					t.Fatal(err)
				}
				b, a := new(big.Int).QuoRem(x, k.pm1, new(big.Int))
				fp := new(big.Int).Exp(gP, a, pPow)
				fq := new(big.Int).Exp(gQ, b, qPow)
				f := new(big.Int).Sub(fq, fp)
				f.Mul(f, coef).Mod(f, qPow).Mul(f, pPow).Add(f, fp)
				want[i] = f
			}
			zeros := make([]*big.Int, n)
			ones := make([]*Ciphertext, n)
			for i := range zeros {
				zeros[i] = new(big.Int)
				ones[i] = &Ciphertext{C: big.NewInt(1), S: s}
			}
			cts := func(cs []*Ciphertext, err error) ([]*big.Int, error) {
				if err != nil {
					return nil, err
				}
				fs := make([]*big.Int, len(cs))
				for i, c := range cs {
					fs[i] = c.C
				}
				return fs, nil
			}
			for _, w := range []int{1, 4} {
				pl := parallel.New(w)
				for _, c := range []struct {
					name    string
					factors func(rng *mrand.Rand) ([]*big.Int, error)
				}{
					{"EncryptBatch", func(rng *mrand.Rand) ([]*big.Int, error) {
						return cts(k.EncryptBatch(ctx, pl, rng, zeros, s))
					}},
					{"RerandomizeBatch", func(rng *mrand.Rand) ([]*big.Int, error) {
						return cts(k.RerandomizeBatch(ctx, pl, rng, ones))
					}},
					{"FillCtx", func(rng *mrand.Rand) ([]*big.Int, error) {
						pre, err := k.NewPrecomputer(s)
						if err != nil {
							return nil, err
						}
						if err := pre.FillCtx(ctx, pl, rng, n); err != nil {
							return nil, err
						}
						return pre.pool, nil
					}},
					{"EncCache.EncryptBatch", func(rng *mrand.Rand) ([]*big.Int, error) {
						out, _, err := NewEncCache(n).EncryptBatch(ctx, pl, rng, &k.PublicKey, nil, zeros, s)
						return cts(out, err)
					}},
				} {
					got, err := c.factors(mrand.New(mrand.NewSource(seed)))
					if err != nil {
						t.Fatalf("s=%d B=%d width %d %s: %v", s, n, w, c.name, err)
					}
					for i := range want {
						if got[i].Cmp(want[i]) != 0 {
							t.Fatalf("s=%d B=%d width %d %s: factor %d differs from CRT(G_p^a, G_q^b)",
								s, n, w, c.name, i)
						}
					}
				}
			}
		}
	}
}

// TestCRTAndPublicCiphertextsInteroperate mixes every way a factor is
// made — the key holder's CRT factor online, the public factor through
// NewPublicKey, pooled CRT factors, and EncCache hits and misses — and
// checks they decrypt alike and combine under ⊕, ⊙ and the layered
// selection as if they came from one path.
func TestCRTAndPublicCiphertextsInteroperate(t *testing.T) {
	k := key(t)
	pub := NewPublicKey(k.N)
	ctx := context.Background()
	pre, err := k.NewPrecomputer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Fill(nil, 2); err != nil {
		t.Fatal(err)
	}
	ec := NewEncCache(8)
	ms := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(7)}

	encs := map[string][]*Ciphertext{}
	add := func(name string, cts []*Ciphertext, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		encs[name] = cts
	}
	cts, err := k.EncryptBatch(ctx, nil, nil, ms, 1)
	add("crt", cts, err)
	cts, err = pub.EncryptBatch(ctx, nil, nil, ms, 1)
	add("public", cts, err)
	cts, pooled, err := pre.EncryptBatch(ctx, nil, nil, ms) // 2 pooled, 1 online
	add("precomputer", cts, err)
	if pooled != 2 {
		t.Fatalf("precomputer pooled %d, want 2", pooled)
	}
	cts, _, err = ec.EncryptBatch(ctx, nil, nil, &k.PublicKey, nil, ms, 1)
	add("cache miss", cts, err)
	hit0, _ := cacheCounters()
	cts, _, err = ec.EncryptBatch(ctx, nil, nil, pub, nil, ms, 1)
	add("cache hit", cts, err)
	if hit1, _ := cacheCounters(); hit1-hit0 != int64(len(ms)) {
		t.Fatalf("public-key pass hit %d cached CRT entries, want %d", hit1-hit0, len(ms))
	}

	for name, cts := range encs {
		for i, c := range cts {
			got, err := k.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(ms[i]) != 0 {
				t.Fatalf("%s slot %d: decrypts to %v, want %v", name, i, got, ms[i])
			}
		}
	}

	// ⊕ across paths, ⊙ with a CRT/public/pooled mix as the indicator.
	sum, err := pub.Add(encs["crt"][2], encs["public"][2])
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Decrypt(sum); got.Int64() != 14 {
		t.Fatalf("CRT ⊕ public = %v, want 14", got)
	}
	v := []*Ciphertext{encs["crt"][0], encs["public"][1], encs["precomputer"][0], encs["cache hit"][0]}
	dot, err := pub.DotProduct([]*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(11), big.NewInt(13)}, v)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Decrypt(dot); got.Int64() != 5 {
		t.Fatalf("mixed-path ⊙ = %v, want 5", got)
	}

	// Layered selection: v1 mixes paths at ε_1, v2 at ε_2.
	v2pub, err := pub.EncryptBatch(ctx, nil, nil, []*big.Int{big.NewInt(1)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	v2crt, err := k.EncryptBatch(ctx, nil, nil, []*big.Int{big.NewInt(0)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	v1 := []*Ciphertext{encs["cache miss"][0], encs["crt"][1]} // selects column 1
	cols := [][]*big.Int{{big.NewInt(10)}, {big.NewInt(20)}, {big.NewInt(30)}, {big.NewInt(40)}}
	out, err := pub.LayeredSelectBatch(ctx, nil, cols, v1, []*Ciphertext{v2pub[0], v2crt[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.DecryptLayered(out[0], 2); err != nil || got.Int64() != 20 {
		t.Fatalf("mixed-path layered selection = %v (%v), want 20", got, err)
	}
}

func benchKey(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	k, err := GenerateKey(nil, bits)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkEncrypt1024(b *testing.B) {
	k := benchKey(b, 1024)
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Encrypt(nil, m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// factorSink keeps BenchmarkEncFactor's result live.
var factorSink *big.Int

// BenchmarkEncFactor times a batch of B encryption factors, the shapes
// the protocol encrypts: PPGNN's δ′ = 101 indicator at 1024-bit keys and
// PPGNN-OPT's 15 (s = 1) and 7 (s = 2) at 2048-bit keys. "public" is
// r^{N^s} mod N^{s+1}, what NewPublicKey and the LSP run; "key" is the
// key holder's CRT path on the key's cached combs; "batch" is what a
// batch call runs, encCombs's choice for B factors, any comb build
// included. It reports ns per factor besides ns per batch.
func BenchmarkEncFactor(b *testing.B) {
	for _, c := range []struct{ bits, s, n int }{{1024, 1, 101}, {2048, 1, 15}, {2048, 2, 7}} {
		k := benchKey(b, c.bits)
		pub := NewPublicKey(k.N)
		for _, path := range []struct {
			name    string
			factors func(rs []*big.Int)
		}{
			{"public", func(rs []*big.Int) {
				for _, r := range rs {
					factorSink = pub.encFactor(r, c.s)
				}
			}},
			{"key", func(rs []*big.Int) {
				ctx := k.crt(c.s)
				combs := factorCombs{ctx: ctx, gp: ctx.gp, gq: ctx.gq}
				for _, x := range rs {
					factorSink = k.combFactor(combs, x)
				}
			}},
			{"batch", func(rs []*big.Int) {
				combs := k.encCombs(c.s, len(rs))
				for _, x := range rs {
					factorSink = k.combFactor(combs, x)
				}
			}},
		} {
			pk := &k.PublicKey
			if path.name == "public" {
				pk = pub
			}
			rs := make([]*big.Int, c.n)
			for i := range rs {
				var err error
				if rs[i], err = pk.drawEncRand(nil); err != nil {
					b.Fatal(err)
				}
			}
			pk.warmEnc(c.s)
			b.Run(fmt.Sprintf("%d/s=%d/B=%d/%s", c.bits, c.s, c.n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.factors(rs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/factor")
			})
		}
	}
}

func BenchmarkDecrypt1024CRT(b *testing.B) {
	k := benchKey(b, 1024)
	ct, err := k.EncryptInt64(nil, 123456789, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1024Direct(b *testing.B) {
	k := benchKey(b, 1024)
	ct, err := k.EncryptInt64(nil, 123456789, 1)
	if err != nil {
		b.Fatal(err)
	}
	mod := k.NS(ct.S + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := new(big.Int).Exp(ct.C, k.lambda, mod)
		x, err := k.logOnePlusN(u, ct.S)
		if err != nil {
			b.Fatal(err)
		}
		x.Mul(x, k.invLambda(ct.S))
		x.Mod(x, k.NS(ct.S))
	}
}

func BenchmarkHomomorphicDot1024(b *testing.B) {
	k := benchKey(b, 1024)
	const n = 100
	xs := make([]*big.Int, n)
	cs := make([]*Ciphertext, n)
	for i := range xs {
		xs[i] = big.NewInt(int64(i + 1))
		ct, err := k.EncryptInt64(nil, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = ct
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DotProduct(xs, cs); err != nil {
			b.Fatal(err)
		}
	}
}

// optBenchKey is the 2048-bit key of the OPT benchmarks, generated once.
var optBenchKey *PrivateKey

func optKey(b *testing.B) *PrivateKey {
	if optBenchKey == nil {
		optBenchKey = benchKey(b, 2048)
	}
	return optBenchKey
}

// BenchmarkOPTSelect times the LSP's PPGNN-OPT selection at 2048-bit keys
// and the opt_2048_nas shape — ω = 7 blocks of 15 candidates, one answer
// row of 1100-bit integers — with the answer rerandomized: "fused" is
// LayeredSelectRerandomized, "separate" the selection followed by
// RerandomizeBatch. Both run under the LSP's public view of the key.
func BenchmarkOPTSelect(b *testing.B) {
	k := optKey(b)
	pub := NewPublicKey(k.N)
	ctx := context.Background()
	const omega, width = 7, 15
	rng := mrand.New(mrand.NewSource(49))
	cols := make([][]*big.Int, omega*width)
	for c := range cols {
		cols[c] = []*big.Int{new(big.Int).Rand(rng, new(big.Int).Lsh(one, 1100))}
	}
	indicator := func(n, s int) []*Ciphertext {
		ms := make([]*big.Int, n)
		for i := range ms {
			ms[i] = new(big.Int)
		}
		ms[n/2] = big.NewInt(1)
		cts, err := k.EncryptBatch(ctx, nil, nil, ms, s)
		if err != nil {
			b.Fatal(err)
		}
		return cts
	}
	v1, v2 := indicator(width, 1), indicator(omega, 2)
	serial := parallel.New(1)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pub.LayeredSelectRerandomized(ctx, serial, nil, nil, cols, v1, v2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cts, err := pub.LayeredSelectBatch(ctx, serial, cols, v1, v2)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pub.RerandomizeBatch(ctx, serial, nil, cts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecryptLayered times the key holder's unwrap of one OPT answer
// integer, [[ [a] ]] at 2048-bit keys: per prime ("crt", what
// DecryptLayered runs) against the λ oracle ("lambda").
func BenchmarkDecryptLayered(b *testing.B) {
	k := optKey(b)
	inner, err := k.Encrypt(nil, big.NewInt(123456789), 1)
	if err != nil {
		b.Fatal(err)
	}
	outer, err := k.Encrypt(nil, inner.C, 2)
	if err != nil {
		b.Fatal(err)
	}
	k.warmDec(2)
	k.warmDec(1)
	b.Run("crt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := k.DecryptLayered(outer, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lambda", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := k.decryptLambda(outer)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := k.decryptLambda(&Ciphertext{C: c, S: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
