package load

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/transport"
)

// Oracle answers plaintext group queries for conformance checking: the
// load harness compares every decrypted protocol answer against it. In
// the in-process gate this is the target LSP's own Search; against a
// remote ppgnn-lsp it is a local engine built over the same dataset.
type Oracle func(query []geo.Point, k int) []gnn.Result

// MismatchError reports a decrypted answer that disagreed with the
// plaintext oracle — a protocol correctness failure, never tolerated by
// any SLO. Match with errors.As.
type MismatchError struct {
	Group int // fleet group index
	Rank  int // first differing answer position (-1 = length mismatch)
	Got   int // POIs returned
	Want  int // POIs the oracle returns
	Delta float64
}

func (e *MismatchError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("load: group %d answer has %d POIs, oracle wants %d", e.Group, e.Got, e.Want)
	}
	return fmt.Sprintf("load: group %d answer diverges from oracle at rank %d (Δ=%g)", e.Group, e.Rank, e.Delta)
}

// FleetConfig sizes the client fleet NewFleet builds: Groups independent
// PPGNN groups, each with its own key pair, location set, and
// fault-tolerant connection pool to the same LSP address. Every group
// queries with the fleet's fixed protocol parameters (fleetD, fleetDelta,
// fleetK, the PPGNN variant) through a pool of fleetPoolSize connections
// whose queries time out after fleetQueryTimeout and back off on the
// transport's defaults.
type FleetConfig struct {
	// Addr is the LSP server address.
	Addr string
	// Groups is the number of independent client groups (default 8).
	// Arrivals round-robin across them; each group runs at most one
	// query at a time (a group is one set of phones), so Groups bounds
	// the fleet's own concurrency and queueing beyond it is measured as
	// latency, exactly like overload in a real deployment.
	Groups int
	// GroupSize is n, the users per group (default 4).
	GroupSize int
	// KeyBits is the Paillier modulus size (default 256).
	KeyBits int
	// Seed derives every group's locations, keys, and pool jitter.
	Seed int64
	// MaxRetries is each pool's resend budget (default
	// transport.DefaultMaxRetries).
	MaxRetries int
	// Tenant routes every group's sessions to a named tenant of a
	// multi-tenant server ("" = the default tenant, no tenant frame on
	// the wire).
	Tenant string
	// DialFunc, when set, supplies group g's dialer — the faultnet
	// injection point: per-group seeded schedules of dial refusals,
	// latency, and mid-stream resets.
	DialFunc func(group int) func(addr string) (net.Conn, error)
	// Oracle enables conformance checking. It forces NoSanitize queries
	// (sanitation is intentionally lossy, so only the NAS configuration
	// has a deterministic plaintext reference).
	Oracle Oracle
}

// The fleet's fixed query shape: small protocol parameters, because
// correctness is size-independent and the load harness measures the
// service, not the paper's cost model.
const (
	fleetD            = 5
	fleetDelta        = 10
	fleetK            = 4
	fleetPoolSize     = 2
	fleetQueryTimeout = 30 * time.Second
)

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Groups <= 0 {
		c.Groups = 8
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 4
	}
	if c.KeyBits == 0 {
		c.KeyBits = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fleetGroup is one client group: a core.Group (key pair, locations,
// partition solution) behind its own transport.Pool, plus the oracle's
// expected answer for its fixed location set. The mutex serializes
// queries — one group of phones runs one protocol round at a time — so
// under overload arrivals queue here and the wait is measured.
type fleetGroup struct {
	mu   sync.Mutex
	g    *core.Group
	pool *transport.Pool
	want []geo.Point
}

// Fleet is a Runner driving real protocol queries from a fixed fleet of
// client groups. It is safe for concurrent Run calls.
type Fleet struct {
	cfg    FleetConfig
	groups []*fleetGroup
}

// NewFleet builds the client fleet: Groups key pairs and location sets
// drawn from Seed, one pool per group. Key generation happens here, not
// on the arrival path — a real device carries its keys across queries.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, fmt.Errorf("load: fleet needs a server address")
	}
	f := &Fleet{cfg: cfg, groups: make([]*fleetGroup, cfg.Groups)}
	for i := range f.groups {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1009))
		p := core.DefaultParams(cfg.GroupSize)
		p.KeyBits = cfg.KeyBits
		p.D = fleetD
		p.Delta = fleetDelta
		p.K = fleetK
		if cfg.Oracle != nil {
			p.NoSanitize = true
		}
		locs := make([]geo.Point, cfg.GroupSize)
		for j := range locs {
			locs[j] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		g, err := core.NewGroup(p, locs, rng)
		if err != nil {
			return nil, fmt.Errorf("load: building group %d: %w", i, err)
		}
		// One group = one set of phones: repeated queries present the LSP
		// the same d-anonymous view (the multi-query intersection defense)
		// and skip redundant dummy generation on the hot path.
		g.CacheSets = true
		pool := transport.NewPool(cfg.Addr)
		pool.Size = fleetPoolSize
		pool.QueryTimeout = fleetQueryTimeout
		pool.Seed = cfg.Seed + int64(i)
		pool.Tenant = cfg.Tenant
		if cfg.MaxRetries != 0 {
			pool.MaxRetries = cfg.MaxRetries
		}
		if cfg.DialFunc != nil {
			pool.DialFunc = cfg.DialFunc(i)
		}
		fg := &fleetGroup{g: g, pool: pool}
		if cfg.Oracle != nil {
			res := cfg.Oracle(locs, fleetK)
			fg.want = make([]geo.Point, len(res))
			for j, r := range res {
				fg.want[j] = r.Item.P
			}
		}
		f.groups[i] = fg
	}
	return f, nil
}

// Groups returns the fleet width.
func (f *Fleet) Groups() int { return len(f.groups) }

// Run executes one protocol query for the given arrival: build the
// encrypted query, send it through the group's pool, decrypt, and — when
// an oracle is configured — verify the answer point-for-point. The
// context only gates the start; once a query is on the wire its pool's
// QueryTimeout bounds it.
func (f *Fleet) Run(ctx context.Context, arrival int64) error {
	fg := f.groups[int(arrival)%len(f.groups)]
	fg.mu.Lock()
	defer fg.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	res, err := fg.g.Run(fg.pool, nil)
	if err != nil {
		return err
	}
	if fg.want == nil {
		return nil
	}
	gi := int(arrival) % len(f.groups)
	if len(res.Points) != len(fg.want) {
		return &MismatchError{Group: gi, Rank: -1, Got: len(res.Points), Want: len(fg.want)}
	}
	for i, w := range fg.want {
		if d := res.Points[i].Dist(w); d > 1e-6 {
			return &MismatchError{Group: gi, Rank: i, Got: len(res.Points), Want: len(fg.want), Delta: d}
		}
	}
	return nil
}

// Close releases every group's connection pool. Nil-safe on partially
// built fleets.
func (f *Fleet) Close() {
	for _, fg := range f.groups {
		if fg != nil && fg.pool != nil {
			fg.pool.Close()
		}
	}
}
