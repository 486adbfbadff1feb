package modmath

import (
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

func TestNegInv(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		m := big.Word(rng.Uint64()) | 1
		if k0 := negInv(m); m*k0 != ^big.Word(0) {
			t.Fatalf("negInv(%#x) = %#x: m·k0 = %#x, want −1", m, k0, m*k0)
		}
	}
}

// TestMontgomeryEdges drives the REDC corner cases through Exp, MultiExp
// and FixedBase and checks each against both MultiExpRef and
// big.Int.Exp: one-word moduli, all-ones moduli (every REDC step carries
// as far as it can), a modulus whose top word is 1 (residues are often a
// word shorter than M), bases at and beyond the modulus, and exponents
// 0, 1, powers of two and all-ones.
func TestMontgomeryEdges(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	pow2 := func(k uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), k) }
	ones := func(k uint) *big.Int { return new(big.Int).Sub(pow2(k), big.NewInt(1)) }
	w := uint(bits.UintSize)

	topOne := new(big.Int).Add(pow2(3*w), randBelow(rng, pow2(3*w)))
	topOne.SetBit(topOne, 0, 1)
	mods := []*big.Int{
		big.NewInt(3), big.NewInt(35),
		new(big.Int).Sub(pow2(64), big.NewInt(59)), // largest 64-bit prime
		ones(w), ones(2 * w), ones(5 * w),
		topOne,
	}
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		pow2(w - 1), pow2(w), pow2(w + 1), pow2(200),
		ones(w), ones(2*w + 3), ones(257),
	}
	for _, m := range mods {
		ctx := MustCtx(m)
		bases := []*big.Int{
			big.NewInt(0), big.NewInt(1),
			new(big.Int).Sub(m, big.NewInt(1)),
			new(big.Int).Set(m),
			new(big.Int).Add(m, big.NewInt(1)),
			new(big.Int).Add(new(big.Int).Lsh(m, 70), big.NewInt(5)),
			randBelow(rng, m),
		}
		for _, b := range bases {
			f, err := ctx.NewFixedBase(b, 257) // the widest exponent below
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range exps {
				want := new(big.Int).Exp(b, e, m)
				ref, err := ctx.MultiExpRef([]*big.Int{b}, []*big.Int{e})
				if err != nil {
					t.Fatal(err)
				}
				if ref.Cmp(want) != 0 {
					t.Fatalf("m=%v b=%v e=%v: MultiExpRef=%v, big.Int.Exp=%v", m, b, e, ref, want)
				}
				if got := ctx.Exp(b, e); got.Cmp(want) != 0 {
					t.Fatalf("m=%v b=%v e=%v: Exp=%v want %v", m, b, e, got, want)
				}
				got, err := ctx.MultiExp([]*big.Int{b}, []*big.Int{e})
				if err != nil || got.Cmp(want) != 0 {
					t.Fatalf("m=%v b=%v e=%v: MultiExp=%v, %v; want %v", m, b, e, got, err, want)
				}
				if got := f.Exp(e); got.Cmp(want) != 0 {
					t.Fatalf("m=%v b=%v e=%v: FixedBase.Exp=%v want %v", m, b, e, got, want)
				}
			}
			// Every exponent at once over this base and M−1: the Straus
			// path with several live terms.
			bs := []*big.Int{b, bases[2]}
			for _, e1 := range exps {
				for _, e2 := range exps {
					es := []*big.Int{e1, e2}
					got, err := ctx.MultiExp(bs, es)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ctx.MultiExpRef(bs, es)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("m=%v bases=%v exps=%v: MultiExp=%v want %v", m, bs, es, got, want)
					}
				}
			}
		}
	}
}
