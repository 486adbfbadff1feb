package modmath

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// testN returns an RSA-shaped N = p·q of nBits bits (two nBits/2-bit
// primes), the base of every modulus the kernel serves in production.
func testN(t testing.TB, nBits int) *big.Int {
	t.Helper()
	p, err := rand.Prime(rand.Reader, nBits/2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, nBits/2)
	if err != nil {
		t.Fatal(err)
	}
	return p.Mul(p, q)
}

// testModulus returns an odd composite modulus of the given bit size,
// built like a Paillier N² so the group structure matches the kernel's
// production use.
func testModulus(t testing.TB, bits int) *big.Int {
	n := testN(t, bits/2)
	return n.Mul(n, n)
}

func randBelow(rng *mrand.Rand, bound *big.Int) *big.Int {
	b := make([]byte, (bound.BitLen()+7)/8)
	rng.Read(b)
	return new(big.Int).Mod(new(big.Int).SetBytes(b), bound)
}

// paillierModuli returns N² for a 1024-bit N, and N² and N³ for a
// 2048-bit N: the 2048-, 4096- and 6144-bit moduli the protocol
// exponentiates under.
func paillierModuli(t testing.TB) []*big.Int {
	n1, n2 := testN(t, 1024), testN(t, 2048)
	return []*big.Int{
		new(big.Int).Mul(n1, n1),
		new(big.Int).Mul(n2, n2),
		new(big.Int).Exp(n2, big.NewInt(3), nil),
	}
}

func TestNewCtxRejectsBadModulus(t *testing.T) {
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(1), big.NewInt(-7), big.NewInt(2), big.NewInt(4)} {
		if _, err := NewCtx(m); err == nil {
			t.Errorf("NewCtx(%v) accepted an invalid modulus", m)
		}
	}
	if _, err := NewCtx(big.NewInt(3)); err != nil {
		t.Errorf("NewCtx(3): %v", err)
	}
}

// TestMultiExpMatchesReference drives random widths, sizes, and sparsity
// patterns through MultiExp and asserts byte-identity with the reference
// Exp-product loop — the kernel's exactness contract.
func TestMultiExpMatchesReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	mods := append([]*big.Int{
		big.NewInt(3), big.NewInt(35),
		testModulus(t, 256), testModulus(t, 512),
	}, paillierModuli(t)...)
	for _, m := range mods {
		ctx := MustCtx(m)
		trials := 30
		if m.BitLen() > 512 {
			trials = 3 // full-width exponents at 2048–6144 bits
		}
		for trial := 0; trial < trials; trial++ {
			k := rng.Intn(12)
			bases := make([]*big.Int, k)
			exps := make([]*big.Int, k)
			for i := range bases {
				bases[i] = randBelow(rng, m)
				switch rng.Intn(5) {
				case 0:
					exps[i] = new(big.Int) // zero exponent: skipped term
				case 1:
					exps[i] = big.NewInt(int64(rng.Intn(4))) // tiny
				default:
					exps[i] = randBelow(rng, m)
				}
				if rng.Intn(8) == 0 {
					bases[i] = new(big.Int) // zero base
				}
			}
			got, err := ctx.MultiExp(bases, exps)
			if err != nil {
				t.Fatalf("MultiExp: %v", err)
			}
			want, err := ctx.MultiExpRef(bases, exps)
			if err != nil {
				t.Fatalf("MultiExpRef: %v", err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("mod %v trial %d: MultiExp=%v want %v (bases=%v exps=%v)",
					m, trial, got, want, bases, exps)
			}
		}
	}
}

func TestMultiExpEdgeCases(t *testing.T) {
	ctx := MustCtx(big.NewInt(1000003))
	// Empty product is 1.
	got, err := ctx.MultiExp(nil, nil)
	if err != nil || got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty MultiExp = %v, %v; want 1", got, err)
	}
	// Length mismatch, nil elements, negative exponents all error.
	if _, err := ctx.MultiExp([]*big.Int{big.NewInt(2)}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ctx.MultiExp([]*big.Int{nil}, []*big.Int{big.NewInt(1)}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := ctx.MultiExp([]*big.Int{big.NewInt(2)}, []*big.Int{big.NewInt(-1)}); err == nil {
		t.Error("negative exponent accepted")
	}
	// A single term runs the same chain as Exp; both match big.Int.Exp.
	b, e := big.NewInt(123456), big.NewInt(789)
	got, err = ctx.MultiExp([]*big.Int{b}, []*big.Int{e})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(b, e, ctx.M)
	if got.Cmp(want) != 0 {
		t.Fatalf("single-term MultiExp = %v, want %v", got, want)
	}
	if got := ctx.Exp(b, e); got.Cmp(want) != 0 {
		t.Fatalf("Exp = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Exp accepted a negative exponent")
		}
	}()
	ctx.Exp(b, big.NewInt(-1))
}

func TestFixedBaseMatchesExp(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	m := testModulus(t, 512)
	ctx := MustCtx(m)
	g := randBelow(rng, m)
	const maxBits = 160
	f, err := ctx.NewFixedBase(g, maxBits)
	if err != nil {
		t.Fatal(err)
	}
	bound := new(big.Int).Lsh(big.NewInt(1), maxBits)
	for trial := 0; trial < 50; trial++ {
		var e *big.Int
		switch trial {
		case 0:
			e = new(big.Int) // zero exponent
		case 1:
			e = big.NewInt(1)
		case 2:
			e = new(big.Int).Sub(bound, big.NewInt(1)) // max in-table
		default:
			e = randBelow(rng, bound)
		}
		if got, want := f.Exp(e), new(big.Int).Exp(g, e, m); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: FixedBase.Exp = %v, want %v", trial, got, want)
		}
	}
	for _, e := range []*big.Int{big.NewInt(-1), bound} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FixedBase.Exp accepted exponent %v outside [0, 2^%d)", e, maxBits)
				}
			}()
			f.Exp(e)
		}()
	}
}

// TestFixedBaseConstantWork pins the comb's clock-free promise: every
// in-range exponent costs the same b(v+1)−2 Montgomery products, 0 and
// all-ones alike, so the count reveals nothing of a secret exponent. It
// also pins the layout the cost model gives the long-lived comb of each
// CRT half of the protocol's keys, and checks the batch combs Batch
// builds at their batch sizes.
func TestFixedBaseConstantWork(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	for _, c := range []struct {
		modBits, expBits, h, v, uses int
	}{
		{1024, 512, 6, 2, 101}, // p² for a 512-bit p: 1024-bit keys, s = 1
		{2048, 1024, 5, 2, 15}, // p² for a 1024-bit p: 2048-bit keys, s = 1
		{3072, 1024, 4, 2, 7},  // p³ for a 1024-bit p: 2048-bit keys, s = 2
		{128, 61, 8, 4, 101},   // a small key's half: maxBits no multiple of h
	} {
		m := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(c.modBits)))
		m.SetBit(m, c.modBits-1, 1)
		m.SetBit(m, 0, 1)
		ctx := MustCtx(m)
		g := randBelow(rng, m)
		f, err := ctx.NewFixedBase(g, c.expBits)
		if err != nil {
			t.Fatal(err)
		}
		if f.h != c.h || f.v != c.v || f.h*f.v*f.b < c.expBits {
			t.Fatalf("%d-bit modulus: comb of %d rows × %d tables × %d columns, want %d × %d covering %d bits",
				c.modBits, f.h, f.v, f.b, c.h, c.v, c.expBits)
		}
		bound := new(big.Int).Lsh(big.NewInt(1), uint(c.expBits))
		exps := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(bound, big.NewInt(1)),
			randBelow(rng, bound),
			randBelow(rng, bound),
		}
		for _, fb := range []*FixedBase{f, f.Batch(c.uses)} {
			want := fb.b*(fb.v+1) - 2
			for _, e := range exps {
				s := ctx.newScratch()
				got := s.leave(fb.comb(s, e))
				if ref := new(big.Int).Exp(g, e, m); got.Cmp(ref) != 0 {
					t.Fatalf("%d-bit modulus, %+v: comb(%v) = %v, want %v", c.modBits, fb.combLayout, e, got, ref)
				}
				if s.products != want || want != fb.expProducts() {
					t.Fatalf("%d-bit modulus, %+v: e=%x took %d products, want %d for every exponent",
						c.modBits, fb.combLayout, e, s.products, want)
				}
			}
		}
	}
}

// TestFixedBaseBatchProducts counts, clock-free, the Montgomery products
// one CRT half spends on a batch of B factors at the protocol's batch
// shapes: the batch comb's build plus B exponentiations when Batch builds
// one, else B exponentiations on the long-lived comb. The bounds are the
// counts of the cost model's layouts; the one-table comb of
// fixedBaseTableBytes spent 14,746, 5,100 and 2,856. Below each shape's
// switch Batch must return the long-lived comb itself, and no batch size
// may cost more than the long-lived comb would.
func TestFixedBaseBatchProducts(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	for _, c := range []struct {
		name              string
		modBits, expBits  int
		uses, maxProducts int
		batchComb         bool
		switchAt          int // least batch size Batch builds a comb for
	}{
		{"1024-bit key p² ×101", 1024, 512, 101, 9400, true, 29},
		{"2048-bit key p² ×15", 2048, 1024, 15, 4250, true, 12},
		{"2048-bit key p³ ×7", 3072, 1024, 7, 2700, false, 8},
	} {
		m := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(c.modBits)))
		m.SetBit(m, c.modBits-1, 1)
		m.SetBit(m, 0, 1)
		ctx := MustCtx(m)
		g := randBelow(rng, m)
		f, err := ctx.NewFixedBase(g, c.expBits)
		if err != nil {
			t.Fatal(err)
		}
		s := ctx.newScratch()
		fb := f
		if l, ok := f.batchLayout(c.uses); ok {
			fb = ctx.buildComb(s, f.entry(0, 1), c.expBits, l)
			if s.products != l.buildProducts() {
				t.Fatalf("%s: build took %d products, the model says %d", c.name, s.products, l.buildProducts())
			}
		}
		if (fb != f) != c.batchComb {
			t.Fatalf("%s: batch comb built = %v, want %v", c.name, fb != f, c.batchComb)
		}
		bound := new(big.Int).Lsh(big.NewInt(1), uint(c.expBits))
		for i := 0; i < c.uses; i++ {
			e := randBelow(rng, bound)
			got := s.leave(fb.comb(s, e))
			if i < 3 {
				if want := new(big.Int).Exp(g, e, m); got.Cmp(want) != 0 {
					t.Fatalf("%s: factor %d = %v, want %v", c.name, i, got, want)
				}
			}
		}
		t.Logf("%s: %+v, %d products (long-lived comb %+v: %d)",
			c.name, fb.combLayout, s.products, f.combLayout, c.uses*f.expProducts())
		if s.products > c.maxProducts {
			t.Fatalf("%s: %d products, want at most %d", c.name, s.products, c.maxProducts)
		}
		for uses := 1; uses <= 200; uses++ {
			l, ok := f.batchLayout(uses)
			if ok != (uses >= c.switchAt) {
				t.Fatalf("%s: batch comb at B=%d is %v, want it from B=%d on", c.name, uses, ok, c.switchAt)
			}
			if ok && l.cost(uses) >= uses*f.expProducts() {
				t.Fatalf("%s: B=%d batch comb costs %d products, the long-lived comb %d",
					c.name, uses, l.cost(uses), uses*f.expProducts())
			}
			if !ok && f.Batch(uses) != f {
				t.Fatalf("%s: B=%d built a batch comb below the switch", c.name, uses)
			}
		}
	}
}

func TestFixedBaseRejectsBadInputs(t *testing.T) {
	ctx := MustCtx(big.NewInt(97))
	if _, err := ctx.NewFixedBase(nil, 10); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := ctx.NewFixedBase(big.NewInt(3), 0); err == nil {
		t.Error("zero maxBits accepted")
	}
}

func TestSlideWindowsReconstructs(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		e := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(300))))
		if e.Sign() == 0 {
			continue
		}
		w := uint(2 + rng.Intn(5))
		wins := slideWindows(e, w, nil)
		sum := new(big.Int)
		for _, win := range wins {
			if win.val%2 == 0 {
				t.Fatalf("even window value %d", win.val)
			}
			if win.val>>(w) != 0 {
				t.Fatalf("window value %d wider than %d bits", win.val, w)
			}
			term := new(big.Int).Lsh(big.NewInt(int64(win.val)), uint(win.pos))
			sum.Add(sum, term)
		}
		if sum.Cmp(e) != 0 {
			t.Fatalf("windows reconstruct %v, want %v (w=%d)", sum, e, w)
		}
	}
}

// FuzzMultiExp cross-checks MultiExp against the reference Exp-product
// loop on fuzz-chosen moduli, bases, and exponents (satellite: wired
// into scripts/fuzz-pass.sh and the CI fuzz job).
func FuzzMultiExp(f *testing.F) {
	f.Add([]byte{7}, []byte{2, 3, 5, 8}, 2)
	f.Add([]byte{255, 255}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 4)
	f.Add([]byte{0}, []byte{}, 0)
	f.Fuzz(func(t *testing.T, modBytes, data []byte, k int) {
		m := new(big.Int).SetBytes(modBytes)
		m.SetBit(m, 0, 1) // the kernel takes odd moduli only
		if m.Cmp(big.NewInt(3)) < 0 || m.BitLen() > 4096 {
			t.Skip()
		}
		if k < 0 || k > 16 {
			t.Skip()
		}
		ctx := MustCtx(m)
		// Split data into 2k chunks: alternating base and exponent bytes.
		bases := make([]*big.Int, k)
		exps := make([]*big.Int, k)
		chunk := func(i int) []byte {
			if len(data) == 0 || k == 0 {
				return nil
			}
			sz := len(data)/(2*k) + 1
			lo := (i * sz) % len(data)
			hi := lo + sz
			if hi > len(data) {
				hi = len(data)
			}
			return data[lo:hi]
		}
		for i := 0; i < k; i++ {
			bases[i] = new(big.Int).SetBytes(chunk(2 * i))
			exps[i] = new(big.Int).SetBytes(chunk(2*i + 1))
		}
		got, err := ctx.MultiExp(bases, exps)
		if err != nil {
			t.Fatalf("MultiExp: %v", err)
		}
		want, err := ctx.MultiExpRef(bases, exps)
		if err != nil {
			t.Fatalf("MultiExpRef: %v", err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("MultiExp=%v want %v (m=%v bases=%v exps=%v)", got, want, m, bases, exps)
		}
	})
}

// FuzzFixedBase cross-checks the comb against big.Int.Exp on a
// fuzz-chosen odd modulus, base, maxBits and batch size: the long-lived
// comb and the one Batch picks for uses exponentiations, at exponents 0,
// 2^maxBits−1 and a fuzz-chosen one cut to maxBits bits. maxBits is
// often no multiple of the comb's rows or row width.
func FuzzFixedBase(f *testing.F) {
	f.Add([]byte{0xc5, 0x3b}, []byte{7}, []byte{0xff, 0x01}, uint16(61), uint16(101))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfb}, []byte{2}, []byte{}, uint16(512), uint16(7))
	f.Add([]byte{35}, []byte{34}, []byte{0x12, 0x34, 0x56}, uint16(1), uint16(1))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{3, 1, 4, 1, 5}, []byte{0xaa}, uint16(77), uint16(300))
	f.Fuzz(func(t *testing.T, modBytes, baseBytes, expBytes []byte, maxBits, uses uint16) {
		m := new(big.Int).SetBytes(modBytes)
		m.SetBit(m, 0, 1) // the kernel takes odd moduli only
		if m.Cmp(big.NewInt(3)) < 0 || m.BitLen() > 1024 {
			t.Skip()
		}
		bitsN := 1 + int(maxBits)%600
		n := 1 + int(uses)%300
		g := new(big.Int).SetBytes(baseBytes)
		fb, err := MustCtx(m).NewFixedBase(g, bitsN)
		if err != nil {
			t.Fatal(err)
		}
		top := new(big.Int).Lsh(big.NewInt(1), uint(bitsN))
		e := new(big.Int).SetBytes(expBytes)
		e.Mod(e, top)
		exps := []*big.Int{new(big.Int), top.Sub(top, big.NewInt(1)), e}
		for _, comb := range []*FixedBase{fb, fb.Batch(n)} {
			for _, e := range exps {
				if got, want := comb.Exp(e), new(big.Int).Exp(g, e, m); got.Cmp(want) != 0 {
					t.Fatalf("m=%v g=%v maxBits=%d comb %+v: Exp(%v) = %v, want %v",
						m, g, bitsN, comb.combLayout, e, got, want)
				}
			}
		}
	})
}

// TestTablesMatchReference drives one table set through many exponent
// vectors — sparse ones, a base whose exponent is zero in every vector,
// a base ≡ 0 (mod M) — and asserts every product is byte-identical to
// the reference loop, from concurrent callers as well.
func TestTablesMatchReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for _, m := range []*big.Int{big.NewInt(35), testModulus(t, 256), testModulus(t, 1024)} {
		ctx := MustCtx(m)
		const k, vecs = 9, 12
		bases := make([]*big.Int, k)
		for i := range bases {
			bases[i] = randBelow(rng, m)
		}
		bases[3] = new(big.Int).Set(m) // ≡ 0 (mod M)
		exps := make([][]*big.Int, vecs)
		for j := range exps {
			exps[j] = make([]*big.Int, k)
			for i := range exps[j] {
				switch {
				case i == 5 || rng.Intn(4) == 0:
					exps[j][i] = new(big.Int) // base 5 is never raised
				case i == 3 && j%2 == 0:
					exps[j][i] = new(big.Int)
				default:
					exps[j][i] = randBelow(rng, m)
				}
			}
		}
		tb, err := ctx.NewTables(bases, exps)
		if err != nil {
			t.Fatal(err)
		}
		if tb.slot[5] != -1 {
			t.Fatalf("the never-raised base has table %d", tb.slot[5])
		}
		got := make([]*big.Int, vecs)
		var wg sync.WaitGroup
		for j := range got {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				got[j] = tb.Product(j)
			}(j)
		}
		wg.Wait()
		for j := range got {
			want, err := ctx.MultiExpRef(bases, exps[j])
			if err != nil {
				t.Fatal(err)
			}
			if got[j].Cmp(want) != 0 {
				t.Fatalf("mod %v vector %d: Product=%v want %v", m, j, got[j], want)
			}
		}
	}
	ctx := MustCtx(big.NewInt(97))
	if _, err := ctx.NewTables([]*big.Int{big.NewInt(2)}, [][]*big.Int{{big.NewInt(1)}, {}}); err == nil {
		t.Error("short exponent vector accepted")
	}
}

// countProducts builds one table set for vecs at window w (0 = the cost
// model's choice) and runs every vector's chain, returning the Montgomery
// products spent in all and the window used. TestTablesMatchReference
// checks the values.
func countProducts(t *testing.T, ctx *Ctx, bases []*big.Int, vecs [][]*big.Int, w uint) (int, uint) {
	t.Helper()
	s := ctx.newScratch()
	tb, err := ctx.newTables(bases, vecs, w, s)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vecs {
		tb.product(j, s)
	}
	return s.products, tb.w
}

// selectionShape draws k bases below m and vecs vectors of expBits-bit
// exponents (top bit set).
func selectionShape(rng *mrand.Rand, m *big.Int, k, vecs, expBits int) ([]*big.Int, [][]*big.Int) {
	bases := make([]*big.Int, k)
	for i := range bases {
		bases[i] = randBelow(rng, m)
	}
	bound := new(big.Int).Lsh(big.NewInt(1), uint(expBits))
	exps := make([][]*big.Int, vecs)
	for j := range exps {
		exps[j] = make([]*big.Int, k)
		for i := range exps[j] {
			e := randBelow(rng, bound)
			exps[j][i] = e.SetBit(e, expBits-1, 1)
		}
	}
	return bases, exps
}

// TestSelectionProductCounts pins, without a clock, the Montgomery
// products of the selection shapes the protocol runs at its gated key
// sizes. The counts depend only on the exponents and the window, so a
// random modulus of the right width stands in for N^{s+1}.
func TestSelectionProductCounts(t *testing.T) {
	rng := mrand.New(mrand.NewSource(12))
	oddModulus := func(bits int) *big.Int {
		m := randBelow(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		return m.SetBit(m.SetBit(m, bits-1, 1), 0, 1)
	}

	// PPGNN-OPT phase 1 at 2048-bit keys: ω = 7 outputs over 15 ε_1
	// indicator ciphertexts mod N², 1100-bit answer exponents, against
	// one table set (w = 8) instead of seven (w = 6).
	ctx := MustCtx(oddModulus(4096))
	bases, vecs := selectionShape(rng, ctx.M, 15, 7, 1100)
	shared, w := countProducts(t, ctx, bases, vecs, 0)
	separate := 0
	for _, v := range vecs {
		n, _ := countProducts(t, ctx, bases, [][]*big.Int{v}, 6)
		separate += n
	}
	t.Logf("OPT phase 1: %d products at w=%d, per-output tables %d", shared, w, separate)
	if shared > 22500 || w != 8 {
		t.Errorf("OPT phase 1: %d products at w=%d (per-output tables: %d), want ≤ 22500 at w=8", shared, w, separate)
	}

	// Phase 2 with the rerandomizer riding the chain: 7 phase-1
	// ciphertexts and (r, N²) as 8 terms of 4096-bit exponents mod N³.
	ctx = MustCtx(oddModulus(6144))
	bases, vecs = selectionShape(rng, ctx.M, 8, 1, 4096)
	n, w := countProducts(t, ctx, bases, vecs, 0)
	t.Logf("OPT phase 2 + rerandomization: %d products at w=%d", n, w)
	if n > 9100 {
		t.Errorf("OPT phase 2 + rerandomization: %d products at w=%d, want ≤ 9100", n, w)
	}

	// PPGNN's ⊙ at 1024-bit keys: 101 terms mod N², 1024-bit exponents.
	// The cost model must not lose to the fixed w = 5 this shape ran at
	// under the bit-length window rule.
	ctx = MustCtx(oddModulus(2048))
	bases, vecs = selectionShape(rng, ctx.M, 101, 1, 1024)
	got, w := countProducts(t, ctx, bases, vecs, 0)
	old, _ := countProducts(t, ctx, bases, vecs, 5)
	t.Logf("PPGNN ⊙: %d products at w=%d, %d at w=5", got, w, old)
	if got > old {
		t.Errorf("PPGNN ⊙: %d products at w=%d, more than %d at w=5", got, w, old)
	}
}
