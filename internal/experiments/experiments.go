// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8). Each FigN function returns the plotted series as
// text tables with the same x-axes and series the paper reports;
// cmd/ppgnn-experiments prints them and EXPERIMENTS.md records a run.
//
// Absolute numbers differ from the paper (Go + math/big here vs C++ + GMP
// there); the comparisons of interest are the *shapes*: who wins, by what
// factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ppgnn/internal/baseline/apnn"
	"ppgnn/internal/baseline/glp"
	"ppgnn/internal/baseline/ippf"
	"ppgnn/internal/core"
	"ppgnn/internal/cost"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/rtree"
)

// Config parameterizes a harness run. Every POI database lives in the
// unit square (geo.UnitRect), as the Sequoia substitute does.
type Config struct {
	Items   []rtree.Item // POI database (default: the Sequoia substitute)
	Queries int          // repeated queries per data point (paper: 500)
	KeyBits int          // Paillier modulus (paper: 1024)
	Seed    int64        // base RNG seed
	// Quick shrinks the sweeps to two points each and the group defaults to
	// n=4, δ=50 — a smoke-test mode for CI; the paper's sweeps are the
	// default.
	Quick bool
}

// Harness defaults: DefaultQueries repeated queries per data point (the
// paper used 500; scale up with -queries for tighter averages) and
// DefaultSeed as the base RNG seed.
const (
	DefaultQueries = 3
	DefaultSeed    = 42
)

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Items == nil {
		c.Items = dataset.Sequoia(dataset.DefaultSeed)
	}
	if c.Queries == 0 {
		c.Queries = DefaultQueries
	}
	if c.KeyBits == 0 {
		c.KeyBits = core.DefaultKeyBits
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// gateKeyBits is the modulus the conformance gates (LoadGate, ChaosGate)
// always run at: they exercise the service and lifecycle layers, not the
// paper's cost model, so a CI pass stays around 20 seconds.
const gateKeyBits = 256

// gateDefaults is Defaults for the conformance gates: KeyBits is
// gateKeyBits whatever the config says.
func (c Config) gateDefaults() Config {
	c.KeyBits = gateKeyBits
	return c.Defaults()
}

// Table is one chart of the paper rendered as text.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []string
	Rows   []Row
}

// Row is one x position with one value per series (NaN = not applicable).
type Row struct {
	X      float64
	Values []float64
}

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-10s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%16s", s)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10.4g", r.X)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%16.4g", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// measurement is one averaged protocol run.
type measurement struct {
	CommBytes float64          // total communication (all channels)
	UserMS    float64          // summed user computation, milliseconds
	LSPMS     float64          // LSP computation, milliseconds
	Answer    float64          // POIs returned per answer
	Ops       map[string]int64 // per-query operation counts (cost.Meter)
}

// runProtocol measures `queries` repetitions of a group query with the
// given parameters. Each repetition uses a fresh random group (new real
// locations), matching the paper's averaging over 500 random queries; the
// unmetered per-group key generation is reported separately (KeygenCost).
func (c Config) runProtocol(p core.Params, lsp *core.LSP, seed int64) (measurement, error) {
	rng := rand.New(rand.NewSource(seed))
	var total cost.Snapshot
	answers := 0
	for q := 0; q < c.Queries; q++ {
		locs := randomLocations(rng, p.N)
		g, err := core.NewGroup(p, locs, rng)
		if err != nil {
			return measurement{}, err
		}
		var m cost.Meter
		res, err := g.Run(core.LocalService{LSP: lsp, Meter: &m}, &m)
		if err != nil {
			return measurement{}, err
		}
		answers += len(res.Records)
		total = total.Add(m.Snapshot())
	}
	avg := total.Scale(c.Queries)
	return measurement{
		CommBytes: float64(avg.TotalBytes()),
		UserMS:    float64(avg.UserTime) / float64(time.Millisecond),
		LSPMS:     float64(avg.LSPTime) / float64(time.Millisecond),
		Answer:    float64(answers) / float64(c.Queries),
		Ops:       avg.Ops,
	}, nil
}

// randomLocations draws n points uniformly from the unit square.
func randomLocations(rng *rand.Rand, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return out
}

// params builds the default group parameters for this config.
func (c Config) params(n int, variant core.Variant) core.Params {
	p := core.DefaultParams(n)
	p.KeyBits = c.KeyBits
	p.Variant = variant
	if c.Quick && n > 1 {
		p.Delta = 50
	}
	return p
}

// defaultN is the group size used where the paper fixes n=8.
func (c Config) defaultN() int {
	if c.Quick {
		return 4
	}
	return core.DefaultN
}

// Sweep ranges (Table 3); Quick mode keeps the endpoints only.
func (c Config) sweepD() []int {
	if c.Quick {
		return []int{5, 25}
	}
	return []int{5, 15, 25, 35, 50}
}
func (c Config) sweepK() []int {
	if c.Quick {
		return []int{2, 8}
	}
	return []int{2, 4, 8, 16, 32}
}
func (c Config) sweepDelta() []int {
	if c.Quick {
		return []int{25, 50}
	}
	return []int{25, 50, 100, 150, 200}
}
func (c Config) sweepN() []int {
	if c.Quick {
		return []int{2, 4}
	}
	return []int{2, 4, 8, 16, 32}
}
func (c Config) sweepTheta() []float64 {
	if c.Quick {
		return []float64{0.05, 0.1}
	}
	return []float64{0.01, 0.025, 0.05, 0.075, 0.1}
}

// newLSP builds the shared LSP for a figure.
func (c Config) newLSP() *core.LSP {
	l := core.NewLSP(c.Items, geo.UnitRect)
	l.SanitizeSeed = c.Seed
	return l
}

// threeCostTables allocates the comm/user/LSP table triple used by most
// figures.
func threeCostTables(prefix, xlabel string, series []string) []*Table {
	return []*Table{
		{Title: prefix + ": total communication cost", XLabel: xlabel, YLabel: "bytes", Series: series},
		{Title: prefix + ": user computational cost", XLabel: xlabel, YLabel: "ms", Series: series},
		{Title: prefix + ": LSP computational cost", XLabel: xlabel, YLabel: "ms", Series: series},
	}
}

func appendMeasurements(tables []*Table, x float64, ms []measurement) {
	comm := make([]float64, len(ms))
	user := make([]float64, len(ms))
	lsp := make([]float64, len(ms))
	for i, m := range ms {
		comm[i], user[i], lsp[i] = m.CommBytes, m.UserMS, m.LSPMS
	}
	tables[0].Rows = append(tables[0].Rows, Row{X: x, Values: comm})
	tables[1].Rows = append(tables[1].Rows, Row{X: x, Values: user})
	tables[2].Rows = append(tables[2].Rows, Row{X: x, Values: lsp})
}

// Fig5 reproduces Figure 5 (single user, n=1): (a–c) vary d with PPGNN and
// PPGNN-OPT; (d–f) vary k adding the APNN baseline.
func (c Config) Fig5() ([]*Table, error) {
	c = c.Defaults()
	lsp := c.newLSP()

	// (a–c) vary d.
	varyD := threeCostTables("Figure 5a-c (n=1, vary d)", "d", []string{"PPGNN", "PPGNN-OPT"})
	for _, d := range c.sweepD() {
		var ms []measurement
		for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT} {
			p := c.params(1, variant)
			p.D, p.Delta = d, d
			m, err := c.runProtocol(p, lsp, c.Seed+int64(d))
			if err != nil {
				return nil, fmt.Errorf("fig5 d=%d %v: %w", d, variant, err)
			}
			ms = append(ms, m)
		}
		appendMeasurements(varyD, float64(d), ms)
	}

	// (d–f) vary k, with APNN (b=5 ≙ d=25).
	varyK := threeCostTables("Figure 5d-f (n=1, vary k)", "k", []string{"PPGNN", "PPGNN-OPT", "APNN"})
	apnnSrv, err := apnn.NewServer(c.Items, geo.UnitRect, 64, 32)
	if err != nil {
		return nil, err
	}
	apnnKey, err := paillier.GenerateKey(nil, c.KeyBits)
	if err != nil {
		return nil, err
	}
	for _, k := range c.sweepK() {
		var ms []measurement
		for _, variant := range []core.Variant{core.VariantPPGNN, core.VariantOPT} {
			p := c.params(1, variant)
			p.K = k
			p.Delta = p.D
			m, err := c.runProtocol(p, lsp, c.Seed+int64(k))
			if err != nil {
				return nil, fmt.Errorf("fig5 k=%d %v: %w", k, variant, err)
			}
			ms = append(ms, m)
		}
		// APNN.
		rng := rand.New(rand.NewSource(c.Seed + int64(k)))
		cli := &apnn.Client{B: 5, Key: apnnKey, Rng: rng}
		var total cost.Snapshot
		for q := 0; q < c.Queries; q++ {
			var meter cost.Meter
			loc := randomLocations(rng, 1)[0]
			if _, err := cli.Query(apnnSrv, loc, k, &meter); err != nil {
				return nil, fmt.Errorf("fig5 apnn k=%d: %w", k, err)
			}
			total = total.Add(meter.Snapshot())
		}
		avg := total.Scale(c.Queries)
		ms = append(ms, measurement{
			CommBytes: float64(avg.TotalBytes()),
			UserMS:    float64(avg.UserTime) / float64(time.Millisecond),
			LSPMS:     float64(avg.LSPTime) / float64(time.Millisecond),
		})
		appendMeasurements(varyK, float64(k), ms)
	}
	return append(varyD, varyK...), nil
}

// Fig6 reproduces Figure 6 (group query, n>1): the PPGNN / PPGNN-OPT /
// Naive comparison varying δ, k, n and θ0.
func (c Config) Fig6() ([]*Table, error) {
	c = c.Defaults()
	lsp := c.newLSP()
	variants := []core.Variant{core.VariantPPGNN, core.VariantOPT, core.VariantNaive}
	names := []string{"PPGNN", "PPGNN-OPT", "Naive"}

	sweep := func(prefix, xlabel string, xs []int, mod func(p *core.Params, x int)) ([]*Table, error) {
		tables := threeCostTables(prefix, xlabel, names)
		for _, x := range xs {
			var ms []measurement
			for _, variant := range variants {
				p := c.params(c.defaultN(), variant)
				mod(&p, x)
				m, err := c.runProtocol(p, lsp, c.Seed+int64(x))
				if err != nil {
					return nil, fmt.Errorf("%s x=%d %v: %w", prefix, x, variant, err)
				}
				ms = append(ms, m)
			}
			appendMeasurements(tables, float64(x), ms)
		}
		return tables, nil
	}

	deltaT, err := sweep("Figure 6a-c (n>1, vary δ)", "delta", c.sweepDelta(),
		func(p *core.Params, x int) { p.Delta = x })
	if err != nil {
		return nil, err
	}
	kT, err := sweep("Figure 6d-f (n>1, vary k)", "k", c.sweepK(),
		func(p *core.Params, x int) { p.K = x })
	if err != nil {
		return nil, err
	}
	nT, err := sweep("Figure 6g-i (n>1, vary n)", "n", c.sweepN(),
		func(p *core.Params, x int) { p.N = x })
	if err != nil {
		return nil, err
	}
	// θ0 needs a float sweep.
	thetaT := threeCostTables("Figure 6j-l (n>1, vary θ0)", "theta0", names)
	for _, th := range c.sweepTheta() {
		var ms []measurement
		for _, variant := range variants {
			p := c.params(c.defaultN(), variant)
			p.Theta0 = th
			m, err := c.runProtocol(p, lsp, c.Seed+int64(th*1000))
			if err != nil {
				return nil, fmt.Errorf("fig6 θ0=%v %v: %w", th, variant, err)
			}
			ms = append(ms, m)
		}
		appendMeasurements(thetaT, th, ms)
	}
	out := append(deltaT, kT...)
	out = append(out, nT...)
	out = append(out, thetaT...)
	return out, nil
}

// Fig7 reproduces Figure 7: the number of POIs actually returned per
// answer after sanitation, varying k, n and θ0 (defaults k=8, n=8,
// θ0=0.01 as in the paper's Figure 7).
func (c Config) Fig7() ([]*Table, error) {
	c = c.Defaults()
	lsp := c.newLSP()
	const fig7Theta = 0.01

	run := func(p core.Params, seed int64) (float64, error) {
		m, err := c.runProtocol(p, lsp, seed)
		if err != nil {
			return 0, err
		}
		return m.Answer, nil
	}

	kT := &Table{Title: "Figure 7a: POIs returned vs k", XLabel: "k", YLabel: "POIs", Series: []string{"PPGNN"}}
	for _, k := range c.sweepK() {
		p := c.params(c.defaultN(), core.VariantPPGNN)
		p.K = k
		p.Theta0 = fig7Theta
		v, err := run(p, c.Seed+int64(k))
		if err != nil {
			return nil, err
		}
		kT.Rows = append(kT.Rows, Row{X: float64(k), Values: []float64{v}})
	}
	nT := &Table{Title: "Figure 7b: POIs returned vs n", XLabel: "n", YLabel: "POIs", Series: []string{"PPGNN"}}
	for _, n := range c.sweepN() {
		p := c.params(n, core.VariantPPGNN)
		p.Theta0 = fig7Theta
		v, err := run(p, c.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		nT.Rows = append(nT.Rows, Row{X: float64(n), Values: []float64{v}})
	}
	thT := &Table{Title: "Figure 7c: POIs returned vs θ0", XLabel: "theta0", YLabel: "POIs", Series: []string{"PPGNN"}}
	for _, th := range c.sweepTheta() {
		p := c.params(c.defaultN(), core.VariantPPGNN)
		p.Theta0 = th
		v, err := run(p, c.Seed+int64(th*1000))
		if err != nil {
			return nil, err
		}
		thT.Rows = append(thT.Rows, Row{X: th, Values: []float64{v}})
	}
	return []*Table{kT, nT, thT}, nil
}

// Fig8 reproduces Figure 8: PPGNN and PPGNN-NAS against the IPPF and GLP
// baselines, varying k and n.
func (c Config) Fig8() ([]*Table, error) {
	c = c.Defaults()
	lsp := c.newLSP()
	ippfSrv := ippf.NewServer(c.Items, geo.UnitRect)
	glpSrv := glp.NewServer(c.Items, geo.UnitRect)
	names := []string{"PPGNN", "PPGNN-NAS", "IPPF", "GLP"}

	point := func(n, k int, seed int64) ([]measurement, error) {
		var ms []measurement
		// PPGNN and PPGNN-NAS.
		for _, nas := range []bool{false, true} {
			p := c.params(n, core.VariantPPGNN)
			p.K = k
			p.NoSanitize = nas
			m, err := c.runProtocol(p, lsp, seed)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		// IPPF.
		rng := rand.New(rand.NewSource(seed))
		ipg := &ippf.Group{
			Locations: randomLocations(rng, n),
			RectArea:  5e-6, Agg: gnn.Sum, Space: geo.UnitRect, Rng: rng,
		}
		var total cost.Snapshot
		for q := 0; q < c.Queries; q++ {
			var meter cost.Meter
			if _, err := ipg.Query(ippfSrv, k, &meter); err != nil {
				return nil, err
			}
			total = total.Add(meter.Snapshot())
		}
		avg := total.Scale(c.Queries)
		ms = append(ms, measurement{
			CommBytes: float64(avg.TotalBytes()),
			UserMS:    float64(avg.UserTime) / float64(time.Millisecond),
			LSPMS:     float64(avg.LSPTime) / float64(time.Millisecond),
		})
		// GLP.
		glg := &glp.Group{
			Locations: randomLocations(rng, n),
			Space:     geo.UnitRect, KeyBits: c.KeyBits, Rng: rng,
		}
		total = cost.Snapshot{}
		for q := 0; q < c.Queries; q++ {
			var meter cost.Meter
			if _, err := glg.Query(glpSrv, k, &meter); err != nil {
				return nil, err
			}
			total = total.Add(meter.Snapshot())
		}
		avg = total.Scale(c.Queries)
		ms = append(ms, measurement{
			CommBytes: float64(avg.TotalBytes()),
			UserMS:    float64(avg.UserTime) / float64(time.Millisecond),
			LSPMS:     float64(avg.LSPTime) / float64(time.Millisecond),
		})
		return ms, nil
	}

	kT := threeCostTables("Figure 8a-c (baselines, vary k)", "k", names)
	for _, k := range c.sweepK() {
		ms, err := point(c.defaultN(), k, c.Seed+int64(k))
		if err != nil {
			return nil, fmt.Errorf("fig8 k=%d: %w", k, err)
		}
		appendMeasurements(kT, float64(k), ms)
	}
	nT := threeCostTables("Figure 8d-f (baselines, vary n)", "n", names)
	for _, n := range c.sweepN() {
		ms, err := point(n, core.DefaultK, c.Seed+int64(n))
		if err != nil {
			return nil, fmt.Errorf("fig8 n=%d: %w", n, err)
		}
		appendMeasurements(nT, float64(n), ms)
	}
	return append(kT, nT...), nil
}
