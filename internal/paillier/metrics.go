package paillier

import "ppgnn/internal/obs"

// Randomness-pool telemetry (DESIGN.md §9, §15). The paillier package
// reports to the process-global obs.Default registry: the pools and the
// encrypted-constant cache are shared across queries and tenants, so
// their signals only make sense aggregated per process. Per-query
// operation counts live on cost.Meter, not here. Counters are pre-bound
// so the hot paths pay one atomic add, not a registry lookup.
//
// Privacy: every metric below is an aggregate count or depth with labels
// drawn from the closed enums in obs/contract.go — degree ∈ {1,2,other},
// tenant slot, randomness source ∈ {pool,online}, cache result. No
// plaintext, ciphertext, or key material is ever observable here.
var (
	// Precomputer pool telemetry: the depth gauge is per-Precomputer —
	// labeled by degree and tenant slot via poolDepthGauge, so the
	// coordinator's s=1/s=2 pools and any per-tenant refilled pools stay
	// separately observable (one process aggregate is meaningless under
	// multi-pool traffic). The pool/online split is the hit/miss ratio —
	// the signal that sizes offline randomness generation — so it counts
	// only the factors of calls that were handed a pool.
	mPoolFilled = obs.Default().Counter("paillier_precompute_filled_total")
	mEncPooled  = obs.Default().Counter("paillier_precompute_encrypt_total", obs.L("source", "pool"))
	mEncOnline  = obs.Default().Counter("paillier_precompute_encrypt_total", obs.L("source", "online"))

	// Background refiller (DESIGN.md §15): fill rounds, factors produced,
	// and the summed self-sized target across live refillers.
	mRefillFills   = obs.Default().Counter("paillier_pool_refill_fills_total")
	mRefillFactors = obs.Default().Counter("paillier_pool_refill_factors_total")
	gRefillTarget  = obs.Default().Gauge("paillier_pool_refill_target")

	// Shared encrypted-constant cache (DESIGN.md §15): hit/miss only.
	// Keys and plaintexts never reach a metric.
	mCacheHit  = obs.Default().Counter("paillier_enc_cache_total", obs.L("result", "hit"))
	mCacheMiss = obs.Default().Counter("paillier_enc_cache_total", obs.L("result", "miss"))
)

// degreeLabel buckets an ε_s degree into the closed "degree" enum.
func degreeLabel(s int) string {
	switch s {
	case 1:
		return "1"
	case 2:
		return "2"
	default:
		return obs.OtherValue
	}
}

// poolDepthGauge binds the per-Precomputer depth gauge for a degree and
// tenant slot. Slots outside the closed tenant enum clamp to "other";
// tenant names never reach the label.
func poolDepthGauge(s int, tenant string) *obs.Gauge {
	return obs.Default().Gauge("paillier_precompute_pool_depth",
		obs.L("degree", degreeLabel(s)), obs.L("tenant", obs.ClampLabel("tenant", tenant)))
}
