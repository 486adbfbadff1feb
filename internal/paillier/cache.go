package paillier

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync"

	"ppgnn/internal/parallel"
)

// EncCache is a bounded LRU of encrypted constants keyed by (public
// key, plaintext, degree), shared across sessions (DESIGN.md §15). The
// indicator vectors of Algorithm 1 re-encrypt the same tiny constant
// set — mostly zeros and a one — on every query, so across sustained
// traffic the binomial (1+N)^m part of those encryptions is pure
// repetition. The cache stores one ciphertext per key and RERANDOMIZES
// on every hit: the stored value is multiplied by a fresh enc(0) factor
// (pooled when a Precomputer is supplied, online otherwise), so each
// emission carries fresh uniform randomness and two hits for the same
// plaintext are never byte-identical — plaintext equality never becomes
// ciphertext equality on the wire. The cache privacy test in
// privacy_test.go and cache_test.go pin exactly that.
type EncCache struct {
	max int

	mu      sync.Mutex
	gen     uint64
	entries map[encKey]*encEntry
}

type encKey struct {
	fp [32]byte
	s  int
	m  string // plaintext bytes; never leaves the process
}

type encEntry struct {
	c   *big.Int // one stored ciphertext value for the key (never emitted as-is)
	gen uint64
}

// NewEncCache creates a cache bounded to max entries (max <= 0 takes
// 1024). Evictions are least-recently-used.
func NewEncCache(max int) *EncCache {
	if max <= 0 {
		max = 1024
	}
	return &EncCache{max: max, entries: make(map[encKey]*encEntry)}
}

// Len returns the number of cached entries (for tests).
func (ec *EncCache) Len() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return len(ec.entries)
}

// EncryptBatch encrypts every plaintext of ms under ε_s through the
// cache, returning ciphertexts in input order plus how many randomness
// factors came from pre's pool. Factors come from encFactors, like every
// other batch form: pooled factors are taken LIFO in index order while
// they last, then online randomness is drawn serially from random — so
// the call composes with the batch determinism contract. pre may be nil
// (all factors online, none counted by source); when set it must belong
// to pk at degree s.
//
// Cache hits cost one modular multiplication (stored ciphertext × fresh
// factor — a fused rerandomization); misses pay the normal encryption
// and populate the cache.
func (ec *EncCache) EncryptBatch(ctx context.Context, pl *parallel.Pool, random io.Reader, pk *PublicKey, pre *Precomputer, ms []*big.Int, s int) ([]*Ciphertext, int, error) {
	if err := pk.checkPlaintexts(ms, s); err != nil {
		return nil, 0, err
	}
	if pre != nil && (pre.pk != pk || pre.s != s) {
		return nil, 0, fmt.Errorf("paillier: precomputer does not match key/degree s=%d", s)
	}
	d, err := pk.encFactors(pre, random, len(ms), s)
	if err != nil {
		return nil, 0, err
	}

	// Serial lookup pass: bases[i] is the stored ciphertext for ms[i],
	// nil on miss. Duplicate plaintexts within one miss batch all
	// compute; the store pass dedups.
	fp := keyFingerprint(pk)
	keys := make([]encKey, len(ms))
	bases := make([]*big.Int, len(ms))
	ec.mu.Lock()
	for i, m := range ms {
		keys[i] = encKey{fp: fp, s: s, m: string(m.Bytes())}
		if e, ok := ec.entries[keys[i]]; ok {
			ec.gen++
			e.gen = ec.gen
			bases[i] = e.c
		}
	}
	ec.mu.Unlock()

	out := make([]*Ciphertext, len(ms))
	err = pl.ForEach(ctx, len(ms), func(i int) error {
		if base := bases[i]; base != nil {
			// Fused rerandomization of the stored ciphertext: the fresh
			// factor is an enc(0), so the product encrypts the same
			// plaintext under fresh uniform randomness.
			out[i] = pk.mulFactor(base, d.factor(i), s)
			mCacheHit.Inc()
			return nil
		}
		out[i] = pk.encryptWith(ms[i], d.factor(i), s)
		mCacheMiss.Inc()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Store pass: keep one ciphertext per missed key (a private copy, so
	// later caller mutation of the returned value cannot poison the
	// cache), LRU-evicting past the bound.
	ec.mu.Lock()
	for i := range ms {
		if bases[i] != nil {
			continue
		}
		if _, ok := ec.entries[keys[i]]; ok {
			continue
		}
		ec.gen++
		ec.entries[keys[i]] = &encEntry{c: new(big.Int).Set(out[i].C), gen: ec.gen}
	}
	for len(ec.entries) > ec.max {
		var oldK encKey
		var old *encEntry
		for k, e := range ec.entries {
			if old == nil || e.gen < old.gen {
				old, oldK = e, k
			}
		}
		delete(ec.entries, oldK)
	}
	ec.mu.Unlock()
	return out, len(d.pool), nil
}
