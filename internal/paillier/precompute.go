package paillier

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"ppgnn/internal/obs"
)

// Precomputer generates encryption randomness offline. An ε_s encryption is
// (1+N)^m · r^{N^s} mod N^{s+1}; the r^{N^s} factor does not depend on the
// plaintext, so a mobile client can compute a pool of them while idle or
// charging and pay only the cheap binomial part online. This directly
// attacks the paper's bottleneck for the user side — the O(δ') (or O(√δ')
// for OPT) encryptions of the indicator vector.
type Precomputer struct {
	pk *PublicKey
	s  int

	// taken counts factors ever consumed from the pool; the background
	// refiller (refill.go) differences it to estimate drain rate.
	taken atomic.Int64

	mu    sync.Mutex
	pool  []*big.Int // ready N^s-th residue factors mod N^{s+1} (encFactors)
	depth *obs.Gauge // this pool's depth gauge (degree × tenant slot)
}

// NewPrecomputer creates an empty pool for degree-s encryptions. The
// pool reports depth under the "default" tenant slot until
// SetMetricTenant rebinds it.
func (pk *PublicKey) NewPrecomputer(s int) (*Precomputer, error) {
	if s < 1 || s > MaxS {
		return nil, fmt.Errorf("paillier: degree s=%d out of range [1,%d]", s, MaxS)
	}
	return &Precomputer{pk: pk, s: s, depth: poolDepthGauge(s, "default")}, nil
}

// SetMetricTenant moves this pool's depth gauge to the given tenant
// slot (a closed-enum value — svc's tenantSlot, never a tenant name).
// The current depth transfers between gauges so per-slot sums stay
// exact across the move.
func (p *Precomputer) SetMetricTenant(slot string) {
	g := poolDepthGauge(p.s, slot)
	p.mu.Lock()
	defer p.mu.Unlock()
	if g == p.depth {
		return
	}
	n := int64(len(p.pool))
	p.depth.Add(-n)
	g.Add(n)
	p.depth = g
}

// Taken returns the number of factors ever consumed from the pool.
func (p *Precomputer) Taken() int64 { return p.taken.Load() }

// Fill adds n randomness factors to the pool (the offline phase). random
// defaults to crypto/rand.Reader when nil. The r^{N^s} exponentiations
// fan across the process-default worker pool; FillCtx takes an explicit
// pool and context.
func (p *Precomputer) Fill(random io.Reader, n int) error {
	return p.FillCtx(context.Background(), nil, random, n)
}

// Size returns the number of pooled factors.
func (p *Precomputer) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pool)
}

// take pops one factor, or nil when the pool is empty.
func (p *Precomputer) take() *big.Int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pool) == 0 {
		return nil
	}
	r := p.pool[len(p.pool)-1]
	p.pool = p.pool[:len(p.pool)-1]
	p.depth.Add(-1)
	p.taken.Add(1)
	return r
}

// Encrypt encrypts m using a pooled randomness factor; when the pool is
// empty it falls back to online randomness (and reports fromPool=false so
// callers can meter the difference). Each pooled factor is used exactly
// once — reuse would break semantic security.
func (p *Precomputer) Encrypt(random io.Reader, m *big.Int) (ct *Ciphertext, fromPool bool, err error) {
	if m.Sign() < 0 || m.Cmp(p.pk.NS(p.s)) >= 0 {
		return nil, false, fmt.Errorf("paillier: plaintext out of range [0, N^%d)", p.s)
	}
	rs := p.take()
	if rs == nil {
		mEncOnline.Inc()
		ct, err := p.pk.Encrypt(random, m, p.s)
		return ct, false, err
	}
	mEncPooled.Inc()
	return p.pk.encryptWith(m, rs, p.s), true, nil
}
