package paillier

import (
	"crypto/sha256"
	"sync"
)

// PoolSet is a bounded collection of Precomputers keyed by public key
// and degree, each with its own background refiller — the server-side
// home for rerandomization randomness (DESIGN.md §15). The LSP sees a
// different public key per group session, so server-side pools cannot
// be a single Precomputer: the set keeps one pool per (key, degree) it
// has recently served, LRU-evicting beyond MaxPools so key churn from
// short-lived sessions cannot grow memory without bound. An evicted
// pool's Precomputer stays valid for any session still holding it — it
// just stops being refilled.
type PoolSet struct {
	opts PoolSetConfig

	mu      sync.Mutex
	gen     uint64
	entries map[poolKey]*poolEntry
	closed  bool
}

// PoolSetConfig configures a PoolSet; zero values take the defaults
// documented on each field.
type PoolSetConfig struct {
	// MaxPools bounds the number of live (key, degree) pools
	// (default 8). Evictions are least-recently-used.
	MaxPools int
	// Refill is the per-pool background refiller configuration. Its
	// Target hook is shared by every pool in the set — svc passes its
	// admission-EWMA hint here.
	Refill RefillerOptions
	// Tenant is the metric tenant slot for the pools' depth gauges
	// (default "default"); svc sets the owning tenant's slot.
	Tenant string
}

type poolKey struct {
	fp [sha256.Size]byte
	s  int
}

type poolEntry struct {
	pre  *Precomputer
	stop func()
	gen  uint64
}

// keyFingerprint identifies a public key by its modulus, so the same
// group key re-parsed from the wire across sessions maps to the same
// pool.
func keyFingerprint(pk *PublicKey) [sha256.Size]byte {
	return sha256.Sum256(pk.N.Bytes())
}

// NewPoolSet creates an empty set. The caller must Close it to stop the
// refillers it starts.
func NewPoolSet(opts PoolSetConfig) *PoolSet {
	if opts.MaxPools <= 0 {
		opts.MaxPools = 8
	}
	if opts.Tenant == "" {
		opts.Tenant = "default"
	}
	return &PoolSet{opts: opts, entries: make(map[poolKey]*poolEntry)}
}

// For returns the set's pool for (pk, s), creating it — and starting
// its refiller, unless the set is closed — on first use. After Close,
// For still returns working (refiller-less) Precomputers, so in-flight
// sessions of a retiring epoch finish safely.
func (ps *PoolSet) For(pk *PublicKey, s int) (*Precomputer, error) {
	k := poolKey{keyFingerprint(pk), s}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.gen++
	if e, ok := ps.entries[k]; ok {
		e.gen = ps.gen
		return e.pre, nil
	}
	pre, err := pk.NewPrecomputer(s)
	if err != nil {
		return nil, err
	}
	pre.SetMetricTenant(ps.opts.Tenant)
	e := &poolEntry{pre: pre, gen: ps.gen}
	if !ps.closed {
		e.stop = pre.StartRefiller(ps.opts.Refill)
	}
	ps.entries[k] = e
	for len(ps.entries) > ps.opts.MaxPools {
		var oldK poolKey
		var old *poolEntry
		for kk, ee := range ps.entries {
			if old == nil || ee.gen < old.gen {
				old, oldK = ee, kk
			}
		}
		delete(ps.entries, oldK)
		if old.stop != nil {
			old.stop()
		}
	}
	return e.pre, nil
}

// Pools returns the number of live pools (for tests and size checks).
func (ps *PoolSet) Pools() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.entries)
}

// SetTenant rebinds every pool's depth gauge (current and future) to
// the given tenant slot.
func (ps *PoolSet) SetTenant(slot string) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.opts.Tenant = slot
	for _, e := range ps.entries {
		e.pre.SetMetricTenant(slot)
	}
}

// Close stops every refiller and marks the set closed; it is
// idempotent. Existing and future pools remain usable without refill.
func (ps *PoolSet) Close() {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	ps.closed = true
	stops := make([]func(), 0, len(ps.entries))
	for _, e := range ps.entries {
		if e.stop != nil {
			stops = append(stops, e.stop)
			e.stop = nil
		}
	}
	ps.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}
