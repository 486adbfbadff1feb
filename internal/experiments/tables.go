package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/encode"
	"ppgnn/internal/partition"
)

// Table2 verifies the asymptotic cost analysis of Table 2 empirically:
// the measured user↔LSP ciphertext traffic must match the closed forms
//
//	PPGNN:     O(nd)L_l + O(δ')L_e + O(k)L_e
//	PPGNN-OPT: O(nd)L_l + O(√δ')L_e + O(k)L_e
//
// It returns a textual report of predicted vs measured bytes at two δ'
// scales, demonstrating the O(δ') vs O(√δ') growth.
func (c Config) Table2() (string, error) {
	c = c.Defaults()
	lsp := c.newLSP()
	var b strings.Builder
	b.WriteString("Table 2: communication-cost forms, predicted vs measured (user↔LSP bytes)\n")
	b.WriteString("L_l = 16B/location, L_e = 2·|N|/8 per ε1 ciphertext, 1.5·L_e per ε2\n\n")
	kb := c.KeyBits / 8
	le := 2 * kb

	for _, delta := range []int{50, 200} {
		part, err := partition.Solve(core.DefaultN, core.DefaultD, delta)
		if err != nil {
			return "", err
		}
		dp := part.DeltaPrime
		codec := encode.Codec{ModulusBits: c.KeyBits}
		m := codec.IntsFor(core.DefaultK)

		for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT} {
			p := c.params(core.DefaultN, variant)
			p.Delta = delta
			p.NoSanitize = true // answer length = k exactly, matching the form
			meas, err := c.runProtocol(p, lsp, c.Seed+int64(delta))
			if err != nil {
				return "", err
			}
			var predicted int
			switch variant {
			case core.VariantPPGNN:
				predicted = core.DefaultN*core.DefaultD*16 + dp*le + m*le
			case core.VariantOPT:
				omega := core.OptimalOmega(dp)
				cols := (dp + omega - 1) / omega
				predicted = core.DefaultN*core.DefaultD*16 + cols*le + omega*3*kb + m*3*kb
			}
			fmt.Fprintf(&b, "δ=%3d (δ'=%3d) %-10v predicted≈%8d  measured=%8.0f  ratio=%.2f\n",
				delta, dp, variant, predicted, meas.CommBytes, meas.CommBytes/float64(predicted))
		}
	}
	b.WriteString("\nPPGNN grows linearly in δ'; PPGNN-OPT in √δ' (compare the two δ rows).\n")
	return b.String(), nil
}

// Table3 renders the evaluated parameter ranges and defaults.
func (c Config) Table3() string {
	var b strings.Builder
	b.WriteString("Table 3: parameters evaluated\n")
	b.WriteString("  scenario  parameter                      range        default\n")
	rows := []string{
		"  n = 1     Privacy I parameter (d)        [5, 50]      25",
		"  n = 1     POIs to retrieve (k)           [2, 32]      8",
		"  n > 1     Privacy II parameter (delta)   [25, 200]    100",
		"  n > 1     POIs to retrieve (k)           [2, 32]      8",
		"  n > 1     user number (n)                [2, 32]      8",
		"  n > 1     Privacy IV parameter (theta0)  [0.01, 0.1]  0.05",
	}
	b.WriteString(strings.Join(rows, "\n"))
	fmt.Fprintf(&b, "\n  keysize %d bits, gamma=0.05, eta=0.2, phi=0.1, F=sum, %d POIs\n",
		c.Defaults().KeyBits, len(c.Defaults().Items))
	return b.String()
}

// Table4 renders the privacy-property matrix of Table 4 for the systems
// implemented in this repository.
func Table4() string {
	var b strings.Builder
	b.WriteString("Table 4: privacy properties of the implemented approaches\n")
	b.WriteString("  approach    technique                        I    II   III  IV\n")
	rows := []string{
		"  APNN [36]   grid precompute + private fetch  yes  yes  yes  n/a  (n=1 only, approximate)",
		"  IPPF [14]   cloak-region candidate superset  yes  yes  NO   NO",
		"  GLP  [2]    secure-sum centroid              yes  NO   yes  NO",
		"  PPGNN       dummy + Paillier selection       yes  yes  yes  yes  (full collusion)",
	}
	b.WriteString(strings.Join(rows, "\n"))
	b.WriteString("\n")
	return b.String()
}

// KeygenCost reports the one-time key generation cost excluded from the
// per-query user cost (see core.Group.KeygenTime).
func (c Config) KeygenCost() (time.Duration, error) {
	c = c.Defaults()
	p := c.params(1, core.VariantPPGNN)
	p.Delta = p.D
	rng := rand.New(rand.NewSource(c.Seed))
	g, err := core.NewGroup(p, randomLocations(rng, 1), rng)
	if err != nil {
		return 0, err
	}
	return g.KeygenTime, nil
}

func fmtBytes(n int64) string { return cost.FormatBytes(n) }
