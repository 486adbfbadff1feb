package paillier

import (
	"bytes"
	"context"
	"math/big"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppgnn/internal/obs"
	"ppgnn/internal/parallel"
)

// TestPoolDepthGaugePerPool pins the ISSUE 10 satellite: with several
// Precomputers alive at once (the coordinator's s=1 and s=2 pools, and
// a second tenant's pool), each reports depth on its own (degree,
// tenant) gauge series — fills and takes on one pool never move another
// pool's series.
func TestPoolDepthGaugePerPool(t *testing.T) {
	k := key(t)
	g := func(deg, tenant string) int64 {
		return obs.Default().Snapshot().Gauge("paillier_precompute_pool_depth",
			obs.L("degree", deg), obs.L("tenant", tenant))
	}
	base1, base2, baseT0 := g("1", "default"), g("2", "default"), g("1", "t0")

	p1, _ := k.NewPrecomputer(1)
	p2, _ := k.NewPrecomputer(2)
	pt, _ := k.NewPrecomputer(1)
	pt.SetMetricTenant("t0")

	if err := p1.Fill(nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := p2.Fill(nil, 5); err != nil {
		t.Fatal(err)
	}
	if err := pt.Fill(nil, 2); err != nil {
		t.Fatal(err)
	}
	if d := g("1", "default") - base1; d != 3 {
		t.Fatalf("s=1 default depth delta = %d, want 3", d)
	}
	if d := g("2", "default") - base2; d != 5 {
		t.Fatalf("s=2 default depth delta = %d, want 5", d)
	}
	if d := g("1", "t0") - baseT0; d != 2 {
		t.Fatalf("s=1 t0 depth delta = %d, want 2", d)
	}

	// Draining one pool must not move the others' series.
	if _, _, err := p2.Encrypt(nil, big.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	if d := g("2", "default") - base2; d != 4 {
		t.Fatalf("s=2 default depth after take = %d, want 4", d)
	}
	if d := g("1", "default") - base1; d != 3 {
		t.Fatalf("s=1 default depth moved to %d on an s=2 take", d)
	}
	if d := g("1", "t0") - baseT0; d != 2 {
		t.Fatalf("t0 depth moved to %d on a default-tenant take", d)
	}

	// Rebinding a non-empty pool transfers its current depth.
	pt.SetMetricTenant("t1")
	if d := g("1", "t0") - baseT0; d != 0 {
		t.Fatalf("t0 depth after rebind = %d, want 0", d)
	}
	if d := g("1", "t1"); d < 2 {
		t.Fatalf("t1 depth after rebind = %d, want >= 2", d)
	}
	if pt.Taken() != 0 || p2.Taken() != 1 {
		t.Fatalf("taken counters = %d/%d, want 0/1", pt.Taken(), p2.Taken())
	}
}

// TestFillConcurrentWithEncryptBatch is the -race hammer for the
// FillCtx/takeN ordering contract: a background refill loop runs while
// a consumer issues EncryptBatch calls at width > 1. Every ciphertext
// must decrypt to its plaintext, the pool/online accounting must add
// up, and no two emitted ciphertexts may share randomness (no factor is
// ever handed out twice).
func TestFillConcurrentWithEncryptBatch(t *testing.T) {
	k := key(t)
	pre, err := k.NewPrecomputer(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var filling sync.WaitGroup
	filling.Add(1)
	go func() {
		defer filling.Done()
		for ctx.Err() == nil {
			if err := pre.FillCtx(ctx, nil, nil, 4); err != nil && ctx.Err() == nil {
				t.Error(err)
				return
			}
		}
	}()

	seen := make(map[string]bool)
	var pooledTotal int
	const rounds, batch = 20, 8
	for r := 0; r < rounds; r++ {
		ms := make([]*big.Int, batch)
		for i := range ms {
			ms[i] = big.NewInt(int64(r*batch + i))
		}
		cts, pooled, err := pre.EncryptBatch(ctx, nil, nil, ms)
		if err != nil {
			t.Fatal(err)
		}
		if pooled < 0 || pooled > batch {
			t.Fatalf("round %d: pooled = %d", r, pooled)
		}
		pooledTotal += pooled
		for i, ct := range cts {
			got, err := k.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(ms[i]) != 0 {
				t.Fatalf("round %d slot %d: roundtrip %v != %v", r, i, got, ms[i])
			}
			key := ct.C.String()
			if seen[key] {
				t.Fatalf("round %d slot %d: duplicate ciphertext — a randomness factor was reused", r, i)
			}
			seen[key] = true
		}
	}
	cancel()
	filling.Wait()
	if got := pre.Taken(); got != int64(pooledTotal) {
		t.Fatalf("taken counter %d != pooled sum %d", got, pooledTotal)
	}
}

// TestEncryptBatchLIFODeterminismWithPausedRefill pins the batch.go
// ordering contract's determinism clause: with the refiller paused, a
// batch at any width consumes the pool and a seeded reader byte-
// identically to the serial loop.
func TestEncryptBatchLIFODeterminismWithPausedRefill(t *testing.T) {
	k := key(t)
	const n, poolDepth = 9, 4
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = big.NewInt(int64(100 + i))
	}
	for name, pk := range encKeys(k) {
		run := func(width int) []*Ciphertext {
			pre, err := pk.NewPrecomputer(1)
			if err != nil {
				t.Fatal(err)
			}
			// Identical pool state: same seed for the fill...
			if err := pre.FillCtx(context.Background(), nil, mrand.New(mrand.NewSource(7)), poolDepth); err != nil {
				t.Fatal(err)
			}
			// ...and the same seed for the online tail.
			cts, pooled, err := pre.EncryptBatch(context.Background(), parallel.New(width), mrand.New(mrand.NewSource(11)), ms)
			if err != nil {
				t.Fatal(err)
			}
			if pooled != poolDepth {
				t.Fatalf("%s width %d: pooled = %d, want %d", name, width, pooled, poolDepth)
			}
			return cts
		}
		want := run(1)
		for _, width := range []int{2, 4, 8} {
			got := run(width)
			for i := range want {
				if !bytes.Equal(want[i].C.Bytes(), got[i].C.Bytes()) {
					t.Fatalf("%s width %d slot %d: ciphertext differs from serial run", name, width, i)
				}
			}
		}
	}
}

// TestRefillerSelfSizes starts a refiller with a floor, drains the pool
// hard, and checks it (a) reaches its floor with no traffic and (b)
// grows the pool back after sustained drain.
func TestRefillerSelfSizes(t *testing.T) {
	k := key(t)
	pre, err := k.NewPrecomputer(1)
	if err != nil {
		t.Fatal(err)
	}
	var hint atomic.Int64
	stop := pre.StartRefiller(RefillerOptions{
		Interval: time.Millisecond,
		MaxChunk: 8,
		Min:      6,
		Max:      64,
		Target:   func() int { return int(hint.Load()) },
	})
	defer stop()

	waitFor := func(cond func() bool, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("refiller never %s (size=%d)", what, pre.Size())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(func() bool { return pre.Size() >= 6 }, "reached its floor")

	// An external target hint (svc's admission EWMA path) raises the
	// target past the floor.
	hint.Store(20)
	waitFor(func() bool { return pre.Size() >= 20 }, "honored the external target hint")

	// Sustained drain: consume factors and check the pool keeps pace.
	for i := 0; i < 30; i++ {
		if _, _, err := pre.Encrypt(nil, big.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(func() bool { return pre.Size() >= 6 }, "recovered after drain")

	stop()
	stop() // idempotent
	size := pre.Size()
	time.Sleep(10 * time.Millisecond)
	if pre.Size() < size {
		t.Fatalf("pool shrank after stop with no consumer: %d -> %d", size, pre.Size())
	}
	// Stopped refiller leaves the pool usable.
	if _, _, err := pre.Encrypt(nil, big.NewInt(1)); err != nil {
		t.Fatal(err)
	}
}

// TestPooledRerandomizeBatch checks the pooled rerandomization path:
// plaintexts preserved, ciphertext bytes changed, pooled/online split
// reported, degree mismatches rejected.
func TestPooledRerandomizeBatch(t *testing.T) {
	k := key(t)
	for s := 1; s <= 2; s++ {
		pre, err := k.NewPrecomputer(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := pre.Fill(nil, 3); err != nil {
			t.Fatal(err)
		}
		const n = 5 // 3 pooled + 2 online
		cs := make([]*Ciphertext, n)
		for i := range cs {
			if cs[i], err = k.Encrypt(nil, big.NewInt(int64(40+i)), s); err != nil {
				t.Fatal(err)
			}
		}
		out, pooled, err := pre.RerandomizeBatch(context.Background(), nil, nil, cs)
		if err != nil {
			t.Fatal(err)
		}
		if pooled != 3 {
			t.Fatalf("s=%d: pooled = %d, want 3", s, pooled)
		}
		for i := range out {
			if out[i].C.Cmp(cs[i].C) == 0 {
				t.Fatalf("s=%d slot %d: rerandomized ciphertext unchanged", s, i)
			}
			got, err := k.Decrypt(out[i])
			if err != nil {
				t.Fatal(err)
			}
			if got.Int64() != int64(40+i) {
				t.Fatalf("s=%d slot %d: plaintext %v after rerandomize", s, i, got)
			}
		}
		// Degree mismatch is rejected up front.
		wrong, err := k.Encrypt(nil, big.NewInt(1), 3-s)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pre.RerandomizeBatch(context.Background(), nil, nil, []*Ciphertext{wrong}); err == nil {
			t.Fatalf("s=%d: mismatched degree accepted", s)
		}
	}
}

// TestPoolSetLifecycle covers For/evict/SetTenant/Close: pools are
// per-(key, degree), LRU-bounded, and usable (refiller-less) after
// Close — the epoch-retirement safety property svc relies on.
func TestPoolSetLifecycle(t *testing.T) {
	k := key(t)
	k2, err := GenerateKey(nil, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPoolSet(PoolSetConfig{
		MaxPools: 2,
		Refill:   RefillerOptions{Interval: time.Millisecond, Min: 2, MaxChunk: 4},
	})
	p1, err := ps.For(&k.PublicKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ps.For(&k.PublicKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != p1 {
		t.Fatal("same (key, degree) returned a different pool")
	}
	if _, err := ps.For(&k.PublicKey, 2); err != nil {
		t.Fatal(err)
	}
	if ps.Pools() != 2 {
		t.Fatalf("pools = %d, want 2", ps.Pools())
	}
	// Third key evicts the LRU entry (p1: the s=1 pool, least recently
	// touched after the For(s=2) call... p1 was touched by `again`, so
	// LRU is actually still p1? No: order of touches is p1, p1, s2 —
	// the s=1 entry is older). Either way the bound holds.
	if _, err := ps.For(&k2.PublicKey, 1); err != nil {
		t.Fatal(err)
	}
	if ps.Pools() != 2 {
		t.Fatalf("pools after eviction = %d, want 2", ps.Pools())
	}

	// The refiller fills created pools toward Min.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p, _ := ps.For(&k2.PublicKey, 1); p.Size() >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool-set refiller never reached its floor")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ps.SetTenant("t3")
	ps.Close()
	ps.Close() // idempotent

	// For still works after Close: a retiring epoch's in-flight sessions
	// must be able to draw pools (without refill).
	post, err := ps.For(&k.PublicKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*Ciphertext{mustEnc(t, k, 5, 2)}
	out, _, err := post.RerandomizeBatch(context.Background(), nil, nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Decrypt(out[0]); got.Int64() != 5 {
		t.Fatalf("post-close rerandomize roundtrip = %v", got)
	}
}

func mustEnc(t *testing.T, k *PrivateKey, m int64, s int) *Ciphertext {
	t.Helper()
	ct, err := k.Encrypt(nil, big.NewInt(m), s)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}
