// Package core implements the PPGNN protocol — the paper's primary
// contribution. It contains the three protocol variants:
//
//   - PPGNN (Section 4.2): location sets of size d, partition-parameter
//     candidate generation, a single ε_1 encrypted indicator vector of
//     length δ', and one homomorphic private selection on the LSP.
//   - PPGNN-OPT (Section 6): the indicator is factored into [v1] (ε_1,
//     length ⌈δ'/ω⌉) and [[v2]] (ε_2, length ω ≈ √(δ'/2)), and the LSP
//     runs a two-phase private selection, cutting user communication and
//     computation from O(δ') to O(√δ').
//   - Naive (Section 4): every user sends δ locations with the real one at
//     a shared position; no partitioning.
//
// The client side (Group) implements query generation (Algorithm 1) and
// answer decryption; the server side (LSP) implements query processing
// (Algorithm 2) including the answer sanitation of Section 5. The two
// halves communicate through explicit, byte-counted messages so the
// experiments can reproduce the paper's communication-cost figures.
package core

import (
	"fmt"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/sanitize"
)

// Variant selects the protocol flavour.
type Variant int

const (
	// VariantPPGNN is the base protocol of Section 4.2.
	VariantPPGNN Variant = iota
	// VariantOPT is the optimized protocol of Section 6.
	VariantOPT
	// VariantNaive is the strawman at the start of Section 4: every user
	// sends δ (not d) locations, aligned at a common position.
	VariantNaive
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantPPGNN:
		return "PPGNN"
	case VariantOPT:
		return "PPGNN-OPT"
	case VariantNaive:
		return "Naive"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Params collects the protocol parameters of Table 3 plus implementation
// knobs. The zero value is not valid; start from DefaultParams.
type Params struct {
	N      int     // group size n ≥ 1
	D      int     // Privacy I anonymity parameter d > 1
	Delta  int     // Privacy II anonymity parameter δ ≥ d
	K      int     // POIs to retrieve
	Theta0 float64 // Privacy IV parameter θ0 ∈ (0,1]

	KeyBits int           // Paillier modulus size (paper: 1024)
	Agg     gnn.Aggregate // aggregate F (paper default: sum)
	Space   geo.Rect      // normalized location space

	// Hypothesis-testing parameters (Section 5.3); zero means the paper
	// defaults γ=0.05, η=0.2, φ=0.1.
	Gamma, Eta, Phi float64

	// IncludeIDs adds POI identifiers to the returned records (the paper
	// returns coordinates only).
	IncludeIDs bool

	Variant Variant
	// NoSanitize disables answer sanitation — the PPGNN-NAS configuration
	// of Section 8.3.2 that assumes no user collusion.
	NoSanitize bool
}

// Defaults from Table 3.
const (
	DefaultD       = 25
	DefaultDelta   = 100
	DefaultK       = 8
	DefaultN       = 8
	DefaultTheta0  = 0.05
	DefaultKeyBits = 1024
)

// DefaultParams returns the paper's default parameterization (Table 3) for
// a group of n users. For n = 1 the Privacy II parameter collapses to
// δ = d (Section 3).
func DefaultParams(n int) Params {
	p := Params{
		N:       n,
		D:       DefaultD,
		Delta:   DefaultDelta,
		K:       DefaultK,
		Theta0:  DefaultTheta0,
		KeyBits: DefaultKeyBits,
		Agg:     gnn.Sum,
		Space:   geo.UnitRect,
	}
	if n == 1 {
		p.Delta = p.D
	}
	return p
}

// withDefaults fills the hypothesis-testing defaults.
func (p Params) withDefaults() Params {
	if p.Gamma == 0 {
		p.Gamma = sanitize.DefaultGamma
	}
	if p.Eta == 0 {
		p.Eta = sanitize.DefaultEta
	}
	if p.Phi == 0 {
		p.Phi = sanitize.DefaultPhi
	}
	if !p.Space.Valid() || p.Space.Area() == 0 {
		p.Space = geo.UnitRect
	}
	return p
}

// Validate checks the parameter ranges of Definition 2.2 and Table 3.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("core: group size n=%d < 1", p.N)
	}
	if p.D < 2 {
		return fmt.Errorf("core: Privacy I requires d > 1, got %d", p.D)
	}
	if p.Delta < p.D {
		return fmt.Errorf("core: Privacy II requires δ ≥ d, got δ=%d d=%d", p.Delta, p.D)
	}
	if p.N == 1 && p.Delta != p.D {
		return fmt.Errorf("core: single-user query requires δ = d, got δ=%d d=%d", p.Delta, p.D)
	}
	if p.K < 1 {
		return fmt.Errorf("core: k=%d < 1", p.K)
	}
	if p.Theta0 <= 0 || p.Theta0 > 1 {
		return fmt.Errorf("core: θ0=%v outside (0,1]", p.Theta0)
	}
	if p.KeyBits < 128 {
		return fmt.Errorf("core: key size %d bits too small", p.KeyBits)
	}
	if p.Variant < VariantPPGNN || p.Variant > VariantNaive {
		return fmt.Errorf("core: unknown variant %d", p.Variant)
	}
	return nil
}
