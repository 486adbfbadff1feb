package modmath

import (
	"time"

	"ppgnn/internal/obs"
)

// Kernel telemetry (DESIGN.md §9, §11). Like the paillier layer, modmath
// reports to the process-global obs.Default registry with pre-bound
// instruments: the kernel has no per-query object, and its signals —
// how often tables are (re)built, how many fixed-base exponentiations
// ran, how wide the multi-exponentiations run — only make sense
// aggregated per process. All labels come from the closed enums in
// obs/contract.go; obs.MustPreRegister materializes every series at
// zero (catalog.go).
var (
	mTblBuildWindow = obs.Default().Counter("modmath_table_builds_total", obs.L("table", "window"))
	mTblBuildFixed  = obs.Default().Counter("modmath_table_builds_total", obs.L("table", "fixed_base"))
	mTblSecsWindow  = obs.Default().Histogram("modmath_table_build_seconds", obs.TimeBuckets, obs.L("table", "window"))
	mTblSecsFixed   = obs.Default().Histogram("modmath_table_build_seconds", obs.TimeBuckets, obs.L("table", "fixed_base"))
	mFixedHit       = obs.Default().Counter("modmath_fixed_base_total", obs.L("result", "hit"))
	mMultiExpWidth  = obs.Default().Histogram("modmath_multiexp_width", obs.CountBuckets)
)

// tableKind distinguishes the two precomputed-table families.
type tableKind int

const (
	tableWindow    tableKind = iota // per-call Straus odd-power tables
	tableFixedBase                  // fixed-base combs: a key's long-lived ones and per-batch ones (FixedBase.Batch)
)

// timeTableBuild counts one table build and returns a closure that
// records its duration when the build finishes. The size argument is
// unused beyond keeping call sites self-describing (width distribution
// is tracked by observeMultiExp).
func timeTableBuild(kind tableKind, size int) func() {
	_ = size
	start := time.Now()
	cnt, hist := mTblBuildWindow, mTblSecsWindow
	if kind == tableFixedBase {
		cnt, hist = mTblBuildFixed, mTblSecsFixed
	}
	cnt.Inc()
	return func() { hist.Observe(time.Since(start).Seconds()) }
}

// observeMultiExp records the live width (nonzero-exponent terms) of one
// MultiExp call.
func observeMultiExp(width int) {
	mMultiExpWidth.Observe(float64(width))
}
