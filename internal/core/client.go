package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/obs"
	"ppgnn/internal/paillier"
	"ppgnn/internal/wire"
)

// Service abstracts the LSP from the client's point of view; LocalService
// calls an in-process LSP, and the retrying transport.Pool
// (internal/transport) talks to a remote one over TCP. Answer runs
// Algorithm 2 for the query under sp, the caller's span for the
// exchange: a remote service carries its trace id on the wire and
// records its retries on it, the in-process one annotates it with the
// LSP's attributes. A nil sp means untraced.
type Service interface {
	Answer(sp *obs.Span, q *QueryMsg, locs []*LocationMsg) (*AnswerMsg, error)
}

// LocalService adapts an in-process LSP, attributing its computation to
// the meter.
type LocalService struct {
	LSP   *LSP
	Meter *cost.Meter
}

// Answer implements Service.
func (s LocalService) Answer(sp *obs.Span, q *QueryMsg, locs []*LocationMsg) (*AnswerMsg, error) {
	s.LSP.annotateTrace(sp, q)
	return s.LSP.Process(q, locs, s.Meter)
}

// Group is the shared-memory roster around a Coordinator: all n users in
// one process, user 0 being the randomly chosen coordinator u_c (the
// choice does not affect cost or privacy since no extra trust is placed
// in u_c). Everything u_c computes is the embedded Coordinator's; Group
// adds the other users' location sets and, under a threshold key, their
// decryption shares.
type Group struct {
	*Coordinator
	Locations []geo.Point // the users' real locations; Locations[0] is u_c's

	// Shares is set in threshold mode: share i belongs to user i, and the
	// first TK.T users cooperate on every decryption.
	Shares []*paillier.KeyShare

	// CacheSets reuses each user's location set (and the hidden positions)
	// across queries instead of drawing fresh dummies every time. Fresh
	// independent dummies are vulnerable to the multi-query intersection
	// attack (internal/attack): only the real location recurs across
	// queries. With caching, repeated queries present the LSP with the same
	// d-anonymous view, so its posterior never improves beyond 1/d. The
	// trade-off is linkability: the LSP can tell the queries come from the
	// same (still anonymous) group. Call InvalidateCache after moving.
	CacheSets bool
	plan      *RoundPlan     // the previous query's plan and sets, for
	sets      []*LocationMsg // CacheSets mode
}

// ThresholdGroup is a Group whose answer decryption requires TK.T of the
// n users to cooperate.
type ThresholdGroup = Group

// InvalidateCache discards the cached location sets (required after any
// user's real location changes).
func (g *Group) InvalidateCache() { g.plan, g.sets = nil, nil }

// NewGroup validates the parameters, checks that the partition-parameter
// program is feasible, and generates the coordinator's key pair.
func NewGroup(p Params, locations []geo.Point, rng *rand.Rand) (*Group, error) {
	if err := checkLocations(p, locations); err != nil {
		return nil, err
	}
	c, err := NewCoordinator(p, locations[0], rng)
	if err != nil {
		return nil, err
	}
	return &Group{Coordinator: c, Locations: locations}, nil
}

// NewThresholdGroup builds a group with a (t, n)-threshold key; see
// NewThresholdCoordinator for the dealing and its cost.
func NewThresholdGroup(p Params, locations []geo.Point, rng *rand.Rand, t int) (*ThresholdGroup, error) {
	if err := checkLocations(p, locations); err != nil {
		return nil, err
	}
	c, shares, err := NewThresholdCoordinator(p, locations[0], rng, t)
	if err != nil {
		return nil, err
	}
	return &Group{Coordinator: c, Locations: locations, Shares: append([]*paillier.KeyShare{c.Share}, shares...)}, nil
}

// checkLocations checks the roster against the group size and the space.
func checkLocations(p Params, locations []geo.Point) error {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return err
	}
	if len(locations) != p.N {
		return fmt.Errorf("core: %d locations for group size n=%d", len(locations), p.N)
	}
	for i, l := range locations {
		if !p.Space.Contains(l) {
			return fmt.Errorf("core: user %d location %v outside space", i, l)
		}
	}
	return nil
}

// DeltaPrime returns the candidate-query count δ' the LSP will process
// (δ for the Naive variant).
func (g *Group) DeltaPrime() int {
	dp, _ := g.Coordinator.DeltaPrime(g.Params.N) // feasibility was checked at construction
	return dp
}

// BuildQuery runs Algorithm 1: the coordinator plans the round (segment
// and per-subgroup positions) and broadcasts the positions, every user
// builds their location set, and the coordinator encrypts the indicator
// vector(s). The intra-group broadcast bytes are recorded on the meter.
func (g *Group) BuildQuery(meter *cost.Meter) (*QueryMsg, []*LocationMsg, error) {
	start := time.Now()
	plan, sets := g.plan, g.sets
	if plan == nil {
		var err error
		if plan, err = g.Plan(len(g.Locations)); err != nil {
			return nil, nil, err
		}
		// Lines 12–15: each user builds a location set with the real
		// location at the position broadcast to their subgroup.
		p := g.Params
		sets = make([]*LocationMsg, len(g.Locations))
		for u, loc := range g.Locations {
			if u > 0 {
				meter.AddBytes(cost.IntraGroup, uvarintLen(uint64(plan.PosFor(u))))
			}
			set := g.Gen.LocationSet(g.Rng, loc, plan.SetSize(p), plan.PosFor(u), p.Space)
			sets[u] = &LocationMsg{UserID: u, Set: set}
		}
		if g.CacheSets {
			g.plan, g.sets = plan, sets
		}
	}
	meter.AddTime(cost.Users, time.Since(start))
	q, err := g.Coordinator.BuildQuery(plan, meter)
	if err != nil {
		return nil, nil, err
	}
	return q, sets, nil
}

// DecryptAnswer decrypts and decodes the LSP's answer — the coordinator
// alone with a sole key, the first TK.T users jointly under a threshold
// key — and accounts for the coordinator broadcasting the plaintext
// answer to the other users.
func (g *Group) DecryptAnswer(ans *AnswerMsg, meter *cost.Meter) ([]encode.Record, error) {
	return g.Decrypt(ans, len(g.Locations), meter, func(degree int, cts []*big.Int) (map[int][]*big.Int, error) {
		start := time.Now()
		defer func() { meter.AddTime(cost.Users, time.Since(start)) }()
		shares := make(map[int][]*big.Int, g.TK.T)
		for _, ks := range g.Shares[1:g.TK.T] {
			vec, err := PartialShares(g.TK, ks, degree, cts)
			if err != nil {
				return nil, err
			}
			shares[ks.Index] = vec
		}
		// The share exchange: T shares of (degree+1)·KeyBytes per ciphertext.
		meter.AddBytes(cost.IntraGroup, len(cts)*g.TK.T*(degree+1)*g.KeyBytes())
		return shares, nil
	})
}

// Result is a decoded, dequantized query answer.
type Result struct {
	Records []encode.Record
	Points  []geo.Point
}

// Run executes a full query round trip: build (Algorithm 1), send, process
// (Algorithm 2, on the service), receive, decrypt. All communication and
// computation costs land on the meter (which may be nil). The run is one
// trace in the default registry's flight recorder — a "session" root
// over "query" (build and round trip) and "decrypt" spans, metered as a
// group.Session meters the same phases.
func (g *Group) Run(svc Service, meter *cost.Meter) (_ *Result, err error) {
	reg := obs.Default()
	sess := reg.StartTrace("session")
	defer func() { sess.End(Outcome(err)) }()
	qsp := reg.StartSpan("query", sess)
	q, locs, err := g.BuildQuery(meter)
	var ans *AnswerMsg
	if err == nil {
		ans, err = RoundTrip(svc, qsp, q, locs, meter)
	}
	qsp.End(Outcome(err))
	if err != nil {
		return nil, err
	}
	dsp := reg.StartSpan("decrypt", sess)
	records, err := g.DecryptAnswer(ans, meter)
	dsp.End(Outcome(err))
	if err != nil {
		return nil, err
	}
	return g.Finish(records), nil
}

// RoundTrip sends the query and its location sets to the LSP under sp
// (nil = untraced) and returns the answer, charging both directions to
// the meter: the one place the user↔LSP bytes of a query are counted,
// the same for an in-process and a remote LSP (retried attempts are
// counted by the transport's own telemetry, not here). The messages are
// marshalled only to count their bytes, so a nil meter skips that work.
func RoundTrip(svc Service, sp *obs.Span, q *QueryMsg, locs []*LocationMsg, meter *cost.Meter) (*AnswerMsg, error) {
	if meter != nil {
		meter.AddBytes(cost.UserToLSP, len(q.Marshal()))
		for _, lm := range locs {
			meter.AddBytes(cost.UserToLSP, len(lm.Marshal()))
		}
	}
	ans, err := svc.Answer(sp, q, locs)
	if err != nil {
		return nil, err
	}
	if meter != nil {
		meter.AddBytes(cost.LSPToUser, len(ans.Marshal()))
	}
	return ans, nil
}

// uvarintLen returns the encoded size of v, used to cost tiny broadcasts.
func uvarintLen(v uint64) int {
	var w wire.Writer
	w.Uvarint(v)
	return w.Len()
}
