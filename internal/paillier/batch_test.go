package paillier

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/big"
	mrand "math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppgnn/internal/obs"
	"ppgnn/internal/parallel"
)

// batchPool is the parallel pool the determinism tests fan out on — wide
// enough to exercise real concurrency even on a single-core runner.
func batchPool() *parallel.Pool { return parallel.New(8) }

func batchPlaintexts(k *PrivateKey, s, n int) []*big.Int {
	ns := k.NS(s)
	ms := make([]*big.Int, n)
	for i := range ms {
		m := big.NewInt(int64(i * i * 7919))
		m.Mod(m, ns)
		ms[i] = m
	}
	return ms
}

// encKeys returns the two ways a modulus encrypts: the key holder's own
// key (CRT factors) and the modulus alone, as the LSP holds it (public
// factors). Determinism tests run on both.
func encKeys(k *PrivateKey) map[string]*PublicKey {
	return map[string]*PublicKey{"GenerateKey": &k.PublicKey, "NewPublicKey": NewPublicKey(k.N)}
}

// TestEncryptBatchMatchesSerial pins the batch determinism contract: for
// the same seeded reader, EncryptBatch at any worker count produces the
// byte-identical ciphertexts of a serial Encrypt loop.
func TestEncryptBatchMatchesSerial(t *testing.T) {
	k := key(t)
	for name, pk := range encKeys(k) {
		for s := 1; s <= 2; s++ {
			ms := batchPlaintexts(k, s, 9)

			serial := make([]*Ciphertext, len(ms))
			rng := mrand.New(mrand.NewSource(42))
			for i, m := range ms {
				c, err := pk.Encrypt(rng, m, s)
				if err != nil {
					t.Fatalf("%s s=%d serial Encrypt: %v", name, s, err)
				}
				serial[i] = c
			}

			batch, err := pk.EncryptBatch(context.Background(), batchPool(), mrand.New(mrand.NewSource(42)), ms, s)
			if err != nil {
				t.Fatalf("%s s=%d EncryptBatch: %v", name, s, err)
			}
			for i := range ms {
				if !bytes.Equal(serial[i].Bytes(pk), batch[i].Bytes(pk)) {
					t.Fatalf("%s s=%d element %d: batch ciphertext differs from serial", name, s, i)
				}
			}
		}
	}
}

// TestEncryptBatchRejectsBadPlaintext checks up-front validation: one
// out-of-range element fails the whole batch before randomness is drawn.
func TestEncryptBatchRejectsBadPlaintext(t *testing.T) {
	k := key(t)
	ms := []*big.Int{big.NewInt(1), new(big.Int).Set(k.NS(1)), big.NewInt(2)}
	if _, err := k.EncryptBatch(context.Background(), batchPool(), nil, ms, 1); err == nil {
		t.Fatal("out-of-range plaintext accepted")
	}
	if _, err := k.EncryptBatch(context.Background(), batchPool(), nil, []*big.Int{big.NewInt(1), nil}, 1); err == nil {
		t.Fatal("nil plaintext accepted")
	}
}

// TestDecryptBatchRoundTrip checks DecryptBatch and DecryptLayeredBatch
// against the plaintexts across degrees and the OPT double layer.
func TestDecryptBatchRoundTrip(t *testing.T) {
	k := key(t)
	ctx := context.Background()
	for s := 1; s <= 2; s++ {
		ms := batchPlaintexts(k, s, 7)
		cts, err := k.EncryptBatch(ctx, batchPool(), nil, ms, s)
		if err != nil {
			t.Fatalf("EncryptBatch: %v", err)
		}
		got, err := k.DecryptBatch(ctx, batchPool(), cts)
		if err != nil {
			t.Fatalf("DecryptBatch: %v", err)
		}
		for i := range ms {
			if got[i].Cmp(ms[i]) != 0 {
				t.Fatalf("s=%d element %d: got %v, want %v", s, i, got[i], ms[i])
			}
		}
	}

	// Layered: ε_2(ε_1(m)) unwrapped twice, PPGNN-OPT's answer shape.
	ms := batchPlaintexts(k, 1, 5)
	inner, err := k.EncryptBatch(ctx, batchPool(), nil, ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	innerVals := make([]*big.Int, len(inner))
	for i, c := range inner {
		innerVals[i] = c.C
	}
	outer, err := k.EncryptBatch(ctx, batchPool(), nil, innerVals, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptLayeredBatch(ctx, batchPool(), outer, 2)
	if err != nil {
		t.Fatalf("DecryptLayeredBatch: %v", err)
	}
	for i := range ms {
		if got[i].Cmp(ms[i]) != 0 {
			t.Fatalf("layered element %d: got %v, want %v", i, got[i], ms[i])
		}
	}
}

// TestPrecomputerBatchMatchesSerial checks pooled-factor order: a batch
// consumes the LIFO pool and then the reader exactly like a serial loop
// of Precomputer.Encrypt calls, so outputs are byte-identical — including
// across the pool-exhaustion boundary.
func TestPrecomputerBatchMatchesSerial(t *testing.T) {
	k := key(t)
	ms := batchPlaintexts(k, 1, 8)
	const fill = 5 // fewer factors than plaintexts: 5 pooled + 3 online

	mkPre := func() *Precomputer {
		pre, err := k.NewPrecomputer(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.Fill(mrand.New(mrand.NewSource(7)), fill); err != nil {
			t.Fatal(err)
		}
		return pre
	}

	serialPre := mkPre()
	rng := mrand.New(mrand.NewSource(13))
	serial := make([]*Ciphertext, len(ms))
	serialPooled := 0
	for i, m := range ms {
		c, fromPool, err := serialPre.Encrypt(rng, m)
		if err != nil {
			t.Fatalf("serial Encrypt: %v", err)
		}
		if fromPool {
			serialPooled++
		}
		serial[i] = c
	}

	batchPre := mkPre()
	batch, pooled, err := batchPre.EncryptBatch(context.Background(), batchPool(), mrand.New(mrand.NewSource(13)), ms)
	if err != nil {
		t.Fatalf("EncryptBatch: %v", err)
	}
	if pooled != serialPooled || pooled != fill {
		t.Fatalf("pooled = %d, serial used %d, want %d", pooled, serialPooled, fill)
	}
	if batchPre.Size() != 0 {
		t.Fatalf("pool not drained: %d left", batchPre.Size())
	}
	for i := range ms {
		if !bytes.Equal(serial[i].Bytes(&k.PublicKey), batch[i].Bytes(&k.PublicKey)) {
			t.Fatalf("element %d: batch ciphertext differs from serial", i)
		}
	}
}

// factorCounters reads the pooled/online factor split a factor-drawing
// batch moves.
func factorCounters() [2]int64 {
	snap := obs.Default().Snapshot()
	return [2]int64{
		snap.Counter("paillier_precompute_encrypt_total", obs.L("source", "pool")),
		snap.Counter("paillier_precompute_encrypt_total", obs.L("source", "online")),
	}
}

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestBatchFactorPathsMatchSerial pins the five batch forms that draw
// encryption factors — PublicKey.EncryptBatch, Precomputer.EncryptBatch,
// an EncCache miss, PublicKey.RerandomizeBatch and
// Precomputer.RerandomizeBatch — to their serial reference loops, for
// the key holder's key and the bare modulus at s = 1 and 2, with a pool
// holding fewer factors than the batch. At every worker width the
// ciphertexts are byte-equal for the same pool state and reader seed,
// the pooled/online split matches, and the counters move alike: a pool's
// source split is counted only when a pool was handed in.
func TestBatchFactorPathsMatchSerial(t *testing.T) {
	k := key(t)
	ctx := context.Background()
	const n, fill = 7, 3
	seeded := func() io.Reader { return mrand.New(mrand.NewSource(17)) }
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	zero := new(big.Int)
	for name, pk := range encKeys(k) {
		for s := 1; s <= 2; s++ {
			ms := batchPlaintexts(k, s, n)
			cs, err := pk.EncryptBatch(ctx, nil, nil, ms, s)
			if err != nil {
				t.Fatal(err)
			}
			newPre := func() *Precomputer {
				pre, err := pk.NewPrecomputer(s)
				if err != nil {
					t.Fatal(err)
				}
				if err := pre.Fill(mrand.New(mrand.NewSource(19)), fill); err != nil {
					t.Fatal(err)
				}
				return pre
			}

			// The serial references: Encrypt, Precomputer.Encrypt, and
			// Rerandomize or a pooled encryption of zero added on.
			encSerial := func(pre *Precomputer) ([]*Ciphertext, int, error) {
				rng := seeded()
				out, pooled := make([]*Ciphertext, n), 0
				for i, m := range ms {
					var err error
					fromPool := false
					if pre == nil {
						out[i], err = pk.Encrypt(rng, m, s)
					} else {
						out[i], fromPool, err = pre.Encrypt(rng, m)
					}
					if err != nil {
						return nil, 0, err
					}
					if fromPool {
						pooled++
					}
				}
				return out, pooled, nil
			}
			rerandSerial := func(pre *Precomputer) ([]*Ciphertext, int, error) {
				rng := seeded()
				out, pooled := make([]*Ciphertext, n), 0
				for i, c := range cs {
					if pre == nil {
						ct, err := pk.Rerandomize(rng, c)
						if err != nil {
							return nil, 0, err
						}
						out[i] = ct
						continue
					}
					z, fromPool, err := pre.Encrypt(rng, zero)
					if err != nil {
						return nil, 0, err
					}
					if fromPool {
						pooled++
					}
					if out[i], err = pk.Add(c, z); err != nil {
						return nil, 0, err
					}
				}
				return out, pooled, nil
			}

			for _, e := range []struct {
				name   string
				pooled bool
				batch  func(pl *parallel.Pool, pre *Precomputer) ([]*Ciphertext, int, error)
				serial func(pre *Precomputer) ([]*Ciphertext, int, error)
			}{
				{"PublicKey.EncryptBatch", false, func(pl *parallel.Pool, _ *Precomputer) ([]*Ciphertext, int, error) {
					out, err := pk.EncryptBatch(ctx, pl, seeded(), ms, s)
					return out, 0, err
				}, encSerial},
				{"Precomputer.EncryptBatch", true, func(pl *parallel.Pool, pre *Precomputer) ([]*Ciphertext, int, error) {
					return pre.EncryptBatch(ctx, pl, seeded(), ms)
				}, encSerial},
				{"EncCache miss", true, func(pl *parallel.Pool, pre *Precomputer) ([]*Ciphertext, int, error) {
					return NewEncCache(64).EncryptBatch(ctx, pl, seeded(), pk, pre, ms, s)
				}, encSerial},
				{"EncCache miss without a pool", false, func(pl *parallel.Pool, pre *Precomputer) ([]*Ciphertext, int, error) {
					return NewEncCache(64).EncryptBatch(ctx, pl, seeded(), pk, pre, ms, s)
				}, encSerial},
				{"PublicKey.RerandomizeBatch", false, func(pl *parallel.Pool, _ *Precomputer) ([]*Ciphertext, int, error) {
					out, err := pk.RerandomizeBatch(ctx, pl, seeded(), cs)
					return out, 0, err
				}, rerandSerial},
				{"Precomputer.RerandomizeBatch", true, func(pl *parallel.Pool, pre *Precomputer) ([]*Ciphertext, int, error) {
					return pre.RerandomizeBatch(ctx, pl, seeded(), cs)
				}, rerandSerial},
			} {
				var want [2]int64
				wantPooled := 0
				if e.pooled {
					wantPooled = fill
					want = [2]int64{fill, n - fill}
				}
				pre := func() *Precomputer {
					if e.pooled {
						return newPre()
					}
					return nil
				}
				ref, refPooled, err := e.serial(pre())
				if err != nil {
					t.Fatalf("%s %s s=%d serial reference: %v", name, e.name, s, err)
				}
				if refPooled != wantPooled {
					t.Fatalf("%s %s s=%d serial reference pooled %d, want %d", name, e.name, s, refPooled, wantPooled)
				}
				for _, w := range widths {
					p := pre()
					before := factorCounters()
					got, pooled, err := e.batch(parallel.New(w), p)
					if err != nil {
						t.Fatalf("%s %s s=%d width %d: %v", name, e.name, s, w, err)
					}
					d := factorCounters()
					for j := range d {
						d[j] -= before[j]
					}
					if pooled != wantPooled || d != want {
						t.Fatalf("%s %s s=%d width %d: pooled %d, counters %v; want %d, %v",
							name, e.name, s, w, pooled, d, wantPooled, want)
					}
					for i := range ref {
						if !bytes.Equal(got[i].Bytes(pk), ref[i].Bytes(pk)) {
							t.Fatalf("%s %s s=%d width %d: ciphertext %d differs from the serial loop",
								name, e.name, s, w, i)
						}
					}
				}
			}
		}

		// A mixed-degree rerandomization fails before drawing randomness.
		c1, err := pk.EncryptBatch(ctx, nil, nil, batchPlaintexts(k, 1, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := pk.EncryptBatch(ctx, nil, nil, batchPlaintexts(k, 2, 1), 2)
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingReader{r: seeded()}
		if _, err := pk.RerandomizeBatch(ctx, nil, cr, []*Ciphertext{c1[0], c2[0]}); err == nil {
			t.Fatalf("%s: mixed-degree RerandomizeBatch accepted", name)
		}
		if cr.n != 0 {
			t.Fatalf("%s: rejected RerandomizeBatch drew %d bytes of randomness", name, cr.n)
		}
	}
}

// TestFillCtxDeterministic checks the pool contents are independent of
// the worker count for a seeded reader.
func TestFillCtxDeterministic(t *testing.T) {
	k := key(t)
	fillWith := func(pl *parallel.Pool) []*big.Int {
		pre, err := k.NewPrecomputer(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.FillCtx(context.Background(), pl, mrand.New(mrand.NewSource(3)), 12); err != nil {
			t.Fatal(err)
		}
		return pre.takeN(12)
	}
	serial, par := fillWith(parallel.New(1)), fillWith(parallel.New(8))
	for i := range serial {
		if serial[i].Cmp(par[i]) != 0 {
			t.Fatalf("pool factor %d differs between 1 and 8 workers", i)
		}
	}
}

// TestDotAndMatSelectBatch checks the batch ⊙/⨂ against the serial ops.
func TestDotAndMatSelectBatch(t *testing.T) {
	k := key(t)
	ctx := context.Background()
	const d, m = 6, 5
	vals := batchPlaintexts(k, 1, d)
	v, err := k.EncryptBatch(ctx, batchPool(), nil, vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := make([][]*big.Int, m)
	for i := range a {
		row := make([]*big.Int, d)
		for j := range row {
			row[j] = big.NewInt(int64((i + 1) * (j + 2) % 17))
		}
		a[i] = row
	}
	want, err := k.MatSelect(a, v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.MatSelectBatch(ctx, batchPool(), a, v)
	if err != nil {
		t.Fatalf("MatSelectBatch: %v", err)
	}
	for i := range want {
		if want[i].C.Cmp(got[i].C) != 0 {
			t.Fatalf("row %d: batch selection differs from serial", i)
		}
	}
}

// TestLayeredSelectBatch builds a tiny ω×cols OPT selection and checks
// the batch result decrypts to the selected column, and matches the
// serial two-phase computation element-wise.
func TestLayeredSelectBatch(t *testing.T) {
	k := key(t)
	ctx := context.Background()
	const omega, width, m = 2, 3, 4
	sel := 4 // selected candidate index: block 1, column 1
	selB, selC := sel/width, sel%width

	cols := make([][]*big.Int, omega*width)
	for t0 := range cols {
		col := make([]*big.Int, m)
		for i := range col {
			col[i] = big.NewInt(int64(100*t0 + i + 1))
		}
		cols[t0] = col
	}

	mkIndicator := func(n, one, s int) []*Ciphertext {
		ms := make([]*big.Int, n)
		for i := range ms {
			ms[i] = big.NewInt(0)
		}
		ms[one] = big.NewInt(1)
		cts, err := k.EncryptBatch(ctx, batchPool(), nil, ms, s)
		if err != nil {
			t.Fatal(err)
		}
		return cts
	}
	v1 := mkIndicator(width, selC, 1)
	v2 := mkIndicator(omega, selB, 2)

	out, err := k.LayeredSelectBatch(ctx, batchPool(), cols, v1, v2)
	if err != nil {
		t.Fatalf("LayeredSelectBatch: %v", err)
	}
	if len(out) != m {
		t.Fatalf("got %d rows, want %d", len(out), m)
	}

	// Serial reference: phase 1 per block, phase 2 across blocks.
	for i := 0; i < m; i++ {
		phase1 := make([]*big.Int, omega)
		for b := 0; b < omega; b++ {
			row := make([]*big.Int, width)
			for c := 0; c < width; c++ {
				row[c] = cols[b*width+c][i]
			}
			ct, err := k.DotProduct(row, v1)
			if err != nil {
				t.Fatal(err)
			}
			phase1[b] = ct.C
		}
		want, err := k.DotProduct(phase1, v2)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].C.Cmp(want.C) != 0 {
			t.Fatalf("row %d: batch layered selection differs from serial", i)
		}
		// And the plaintext is the selected column's entry.
		got, err := k.DecryptLayered(out[i], 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := cols[sel][i]; got.Cmp(want) != 0 {
			t.Fatalf("row %d: selected %v, want %v", i, got, want)
		}
	}
}

// TestThresholdBatches checks PartialDecryptBatch + CombineBatch against
// their serial counterparts end to end.
func TestThresholdBatches(t *testing.T) {
	tk, shares := thresholdKey(t)
	ctx := context.Background()
	ms := make([]*big.Int, 6)
	for i := range ms {
		ms[i] = big.NewInt(int64(1000 + i))
	}
	cts, err := tk.EncryptBatch(ctx, batchPool(), nil, ms, 1)
	if err != nil {
		t.Fatal(err)
	}

	sets := make([][]*DecryptionShare, len(cts))
	for _, ks := range shares[:tk.T] {
		dss, err := tk.PartialDecryptBatch(ctx, batchPool(), ks, cts)
		if err != nil {
			t.Fatalf("PartialDecryptBatch: %v", err)
		}
		// Cross-check one holder against the serial op.
		ds0, err := tk.PartialDecrypt(ks, cts[0])
		if err != nil {
			t.Fatal(err)
		}
		if dss[0].Value.Cmp(ds0.Value) != 0 {
			t.Fatal("batch partial decryption differs from serial")
		}
		for i, ds := range dss {
			sets[i] = append(sets[i], ds)
		}
	}
	got, err := tk.CombineBatch(ctx, batchPool(), sets)
	if err != nil {
		t.Fatalf("CombineBatch: %v", err)
	}
	for i := range ms {
		if got[i].Cmp(ms[i]) != 0 {
			t.Fatalf("element %d: got %v, want %v", i, got[i], ms[i])
		}
	}
}

// TestBatchHammer is the 64-goroutine -race hammer of the ISSUE: all
// goroutines share one key and one Precomputer while running mixed batch
// ops, so the lazily built caches (N^i, inverse factorials, CRT contexts,
// λ^{-1}) and the pool's LIFO stack all see real contention.
func TestBatchHammer(t *testing.T) {
	k := key(t)
	pre, err := k.NewPrecomputer(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pl := parallel.New(4)

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			ms := batchPlaintexts(k, 1, 3)
			switch g % 4 {
			case 0:
				if err := pre.FillCtx(ctx, pl, nil, 3); err != nil {
					errs <- err
				}
			case 1:
				if _, _, err := pre.EncryptBatch(ctx, pl, nil, ms); err != nil {
					errs <- err
				}
			case 2:
				cts, err := k.EncryptBatch(ctx, pl, nil, ms, 2)
				if err != nil {
					errs <- err
					return
				}
				if _, err := k.DecryptBatch(ctx, pl, cts); err != nil {
					errs <- err
				}
			case 3:
				cts, err := k.EncryptBatch(ctx, pl, nil, ms, 1)
				if err != nil {
					errs <- err
					return
				}
				rows := [][]*big.Int{{big.NewInt(1), big.NewInt(2), big.NewInt(3)}}
				if _, err := k.MatSelectBatch(ctx, pl, rows, cts); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatchCancellation cancels a batch mid-flight: the call must return
// the context error promptly and leave no goroutines behind.
func TestBatchCancellation(t *testing.T) {
	k := key(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms := batchPlaintexts(k, 1, 64)
	if _, err := k.EncryptBatch(ctx, parallel.New(4), nil, ms, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("EncryptBatch under canceled ctx: err = %v, want context.Canceled", err)
	}

	// Cancel while workers are decrypting a larger batch.
	cts, err := k.EncryptBatch(context.Background(), parallel.New(4), nil, ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := k.DecryptBatch(ctx2, parallel.New(4), cts)
		done <- err
	}()
	cancel2()
	select {
	case err := <-done:
		// Either the cancel won the race, or the batch finished first —
		// both are legal; a hang or a non-ctx failure is not.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("DecryptBatch: err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("DecryptBatch did not return after cancel")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSelectRerandomizedMatchesSeparate pins the fused rerandomization:
// for the layered and the single-phase selection, under a public key
// (the online factor rides the chain), the key holder (its CRT factor is
// multiplied in) and a pool shorter than the output (pooled factors
// first), the fused call under a seeded reader is byte-identical to the
// selection followed by RerandomizeBatch under the same seed, and counts
// one rerandomization per output.
func TestSelectRerandomizedMatchesSeparate(t *testing.T) {
	k := key(t)
	pub := NewPublicKey(k.N)
	ctx := context.Background()
	const omega, width, m = 2, 3, 4
	rng := mrand.New(mrand.NewSource(31))
	cols := make([][]*big.Int, omega*width)
	for c := range cols {
		cols[c] = make([]*big.Int, m)
		for i := range cols[c] {
			cols[c][i] = big.NewInt(rng.Int63n(1 << 40))
		}
	}
	rows := make([][]*big.Int, m) // the single-phase matrix, row-major
	for i := range rows {
		rows[i] = make([]*big.Int, len(cols))
		for c := range cols {
			rows[i][c] = cols[c][i]
		}
	}
	indicator := func(n, s int) []*Ciphertext {
		ms := make([]*big.Int, n)
		for i := range ms {
			ms[i] = big.NewInt(int64(i % 2))
		}
		cts, err := k.EncryptBatch(ctx, nil, nil, ms, s)
		if err != nil {
			t.Fatal(err)
		}
		return cts
	}
	v, v1, v2 := indicator(len(cols), 1), indicator(width, 1), indicator(omega, 2)
	// pool returns a fresh precomputer holding the same two factors on
	// every call, or nil.
	pool := func(with bool, s int) *Precomputer {
		if !with {
			return nil
		}
		pre, err := k.NewPrecomputer(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.Fill(mrand.New(mrand.NewSource(int64(32+s))), 2); err != nil {
			t.Fatal(err)
		}
		return pre
	}
	rerandomize := func(pk *PublicKey, pre *Precomputer, seed int64, cts []*Ciphertext) []*Ciphertext {
		random := mrand.New(mrand.NewSource(seed))
		var out []*Ciphertext
		var err error
		if pre != nil {
			out, _, err = pre.RerandomizeBatch(ctx, nil, random, cts)
		} else {
			out, err = pk.RerandomizeBatch(ctx, nil, random, cts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct {
		name   string
		pk     *PublicKey
		pooled bool
	}{{"public", pub, false}, {"key holder", &k.PublicKey, false}, {"pooled", pub, true}} {
		for _, workers := range []int{1, 4} {
			pl := parallel.New(workers)
			seed := int64(40 + workers)
			sel, err := c.pk.LayeredSelectBatch(ctx, pl, cols, v1, v2)
			if err != nil {
				t.Fatal(err)
			}
			want := rerandomize(c.pk, pool(c.pooled, 2), seed, sel)
			got, pooled, err := c.pk.LayeredSelectRerandomized(ctx, pl, mrand.New(mrand.NewSource(seed)), pool(c.pooled, 2), cols, v1, v2)
			if err != nil {
				t.Fatal(err)
			}
			if c.pooled != (pooled == 2) {
				t.Fatalf("%s layered: %d pooled factors", c.name, pooled)
			}
			for i := range want {
				if got[i].S != 2 || got[i].C.Cmp(want[i].C) != 0 || got[i].C.Cmp(sel[i].C) == 0 {
					t.Fatalf("%s layered workers=%d row %d: fused output differs from select-then-rerandomize", c.name, workers, i)
				}
			}

			sel, err = c.pk.MatSelectBatch(ctx, pl, rows, v)
			if err != nil {
				t.Fatal(err)
			}
			want = rerandomize(c.pk, pool(c.pooled, 1), seed, sel)
			got, _, err = c.pk.MatSelectRerandomized(ctx, pl, mrand.New(mrand.NewSource(seed)), pool(c.pooled, 1), rows, v)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].S != 1 || got[i].C.Cmp(want[i].C) != 0 || got[i].C.Cmp(sel[i].C) == 0 {
					t.Fatalf("%s single-phase workers=%d row %d: fused output differs from select-then-rerandomize", c.name, workers, i)
				}
			}
		}
	}
	if _, _, err := pub.MatSelectRerandomized(ctx, nil, nil, pool(true, 2), rows, v); err == nil {
		t.Fatal("a degree-2 pool rerandomized degree-1 outputs")
	}
}
