package modmath

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// The kernel's reason to exist, in microbenchmark form: MultiExp vs the
// per-term Exp loop at the protocol's characteristic shapes (δ'≈101
// terms for a ⊙ dot product over the candidate indicator; a handful of
// terms for a threshold combine), and the FixedBase comb vs cold Exp at
// the key holder's CRT-half widths. End to end the
// same work shows up as the paillier.* layers of `bash bench/run.sh`.

func benchTerms(b *testing.B, bits, k, expBits int) (*Ctx, []*big.Int, []*big.Int) {
	b.Helper()
	rng := mrand.New(mrand.NewSource(7))
	m := testModulus(b, bits)
	ctx := MustCtx(m)
	bound := new(big.Int).Lsh(big.NewInt(1), uint(expBits))
	bases := make([]*big.Int, k)
	exps := make([]*big.Int, k)
	for i := range bases {
		bases[i] = randBelow(rng, m)
		exps[i] = randBelow(rng, bound)
	}
	return ctx, bases, exps
}

func benchMultiExp(b *testing.B, bits, k, expBits int, ref bool) {
	ctx, bases, exps := benchTerms(b, bits, k, expBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if ref {
			_, err = ctx.MultiExpRef(bases, exps)
		} else {
			_, err = ctx.MultiExp(bases, exps)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiExp101Kernel(b *testing.B) { benchMultiExp(b, 1024, 101, 512, false) }
func BenchmarkMultiExp101Ref(b *testing.B)    { benchMultiExp(b, 1024, 101, 512, true) }
func BenchmarkMultiExp8Kernel(b *testing.B)   { benchMultiExp(b, 1024, 8, 512, false) }
func BenchmarkMultiExp8Ref(b *testing.B)      { benchMultiExp(b, 1024, 8, 512, true) }
func BenchmarkMultiExp3Kernel(b *testing.B)   { benchMultiExp(b, 1024, 3, 1024, false) }
func BenchmarkMultiExp3Ref(b *testing.B)      { benchMultiExp(b, 1024, 3, 1024, true) }

// BenchmarkMultiExpShapes times MultiExp against the per-term loop at
// the three shapes private selection runs in production:
//
//   - opt1: PPGNN-OPT phase 1 at 2048-bit keys, 15 terms mod N² (4096
//     bits) with 1100-bit answer exponents;
//   - opt2: PPGNN-OPT phase 2, 7 terms mod N³ (6144 bits) with 4096-bit
//     exponents (phase-1 ciphertexts);
//   - ppgnn: PPGNN's ⊙ at 1024-bit keys, 101 terms mod N² (2048 bits)
//     with about 1000-bit exponents.
//
// DESIGN.md §11 records the ratios against the Mul+Mod chain the
// Montgomery one replaced.
func BenchmarkMultiExpShapes(b *testing.B) {
	shapes := []struct {
		name                 string
		nBits, s, k, expBits int
	}{
		{"opt1_N2_4096", 2048, 1, 15, 1100},
		{"opt2_N3_6144", 2048, 2, 7, 4096},
		{"ppgnn_N2_2048", 1024, 1, 101, 1000},
	}
	for _, sh := range shapes {
		n := testN(b, sh.nBits)
		m := new(big.Int).Exp(n, big.NewInt(int64(sh.s+1)), nil)
		ctx := MustCtx(m)
		rng := mrand.New(mrand.NewSource(9))
		bound := new(big.Int).Lsh(big.NewInt(1), uint(sh.expBits))
		bases := make([]*big.Int, sh.k)
		exps := make([]*big.Int, sh.k)
		for i := range bases {
			bases[i] = randBelow(rng, m)
			exps[i] = randBelow(rng, bound)
		}
		for _, ref := range []bool{false, true} {
			name := sh.name + "/kernel"
			if ref {
				name = sh.name + "/ref"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var err error
					if ref {
						_, err = ctx.MultiExpRef(bases, exps)
					} else {
						_, err = ctx.MultiExp(bases, exps)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFixedBaseExp times one CRT half of a key holder's batch of
// encryption factors at the protocol's batch shapes: an exponent as wide
// as the prime, mod p^{s+1}, B times per op. "key" runs them on the
// long-lived comb of fixedBaseTableBytes; "batch" builds the comb the
// cost model picks for B uses within windowTableBytes and runs them on
// it, build included. Batch builds it only where it wins, so at ×7 the
// production path is "key".
func BenchmarkFixedBaseExp(b *testing.B) {
	for _, c := range []struct {
		name             string
		modBits, expBits int
		uses             int
	}{
		{"p2_1024/B=101", 1024, 512, 101},
		{"p2_2048/B=15", 2048, 1024, 15},
		{"p3_3072/B=7", 3072, 1024, 7},
	} {
		rng := mrand.New(mrand.NewSource(8))
		m := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(c.modBits)))
		m.SetBit(m, c.modBits-1, 1)
		m.SetBit(m, 0, 1)
		ctx := MustCtx(m)
		f, err := ctx.NewFixedBase(randBelow(rng, m), c.expBits)
		if err != nil {
			b.Fatal(err)
		}
		exps := make([]*big.Int, c.uses)
		for i := range exps {
			exps[i] = randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(c.expBits)))
		}
		for _, comb := range []struct {
			name string
			make func() *FixedBase
		}{
			{"key", func() *FixedBase { return f }},
			{"batch", func() *FixedBase {
				l := chooseComb(len(ctx.mw), c.expBits, c.uses, windowTableBytes)
				return ctx.buildComb(ctx.newScratch(), f.entry(0, 1), c.expBits, l)
			}},
		} {
			b.Run(c.name+"/"+comb.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fb := comb.make()
					for _, e := range exps {
						fixedSink = fb.Exp(e)
					}
				}
			})
		}
	}
}

// fixedSink keeps BenchmarkFixedBaseExp's results live.
var fixedSink *big.Int

func BenchmarkFixedBaseColdExp(b *testing.B) {
	rng := mrand.New(mrand.NewSource(8))
	m := testModulus(b, 1024)
	ctx := MustCtx(m)
	g := randBelow(rng, m)
	// The cold path this replaces: full-width randomness r^{N^s} with a
	// 512-bit exponent (N^s for a 512-bit N at s=1).
	e := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), 512))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Exp(g, e)
	}
}

// BenchmarkMontMul times one Montgomery product against one squaring
// (the same slice as both operands, which takes math/big's basicSqr) at
// the widths the protocol reduces under: N² and N³ for 512- to 2048-bit
// N. chooseComb and chooseWindow count a squaring as a full product; the
// square ÷ product ratio is the weight they would use instead (ROADMAP
// 12d). Compare the two within one process run, repeated, since the box
// drifts between runs more than the ratio does.
func BenchmarkMontMul(b *testing.B) {
	rng := mrand.New(mrand.NewSource(12))
	for _, bits := range []int{1024, 2048, 3072, 4096, 6144} {
		m := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		m.SetBit(m, bits-1, 1)
		m.SetBit(m, 0, 1)
		ctx := MustCtx(m)
		s := ctx.newScratch()
		x, y, z := make([]big.Word, len(ctx.mw)), make([]big.Word, len(ctx.mw)), make([]big.Word, len(ctx.mw))
		s.enter(x, randBelow(rng, m))
		s.enter(y, randBelow(rng, m))
		b.Run(fmt.Sprintf("%d/product", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.mul(z, x, y)
			}
		})
		b.Run(fmt.Sprintf("%d/square", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.mul(z, x, x)
			}
		})
	}
}
