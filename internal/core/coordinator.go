package core

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/dummy"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/paillier"
	"ppgnn/internal/partition"
)

// Coordinator is everything u_c does, in one place: the key material
// (sole or threshold), the round plan and indicator encryption of
// Algorithm 1, the offline randomness pools, and answer decryption and
// decoding. Who the other n−1 users are is the roster's business: Group
// keeps them in shared memory, internal/group's Session reaches them over
// links. Because a link roster can shrink between rounds — members drop
// out and are replaced by a smaller re-partition — the partition program
// is solved per round via Plan rather than once at construction.
//
// Threshold mode removes the protocol's residual trust point. With a sole
// key u_c decrypts the answer before anyone else and a compromised u_c
// could decrypt arbitrary intercepted ciphertexts. With a (t, n)-threshold
// key (Damgård–Jurik Section 4.1, internal/paillier/threshold.go) every
// user holds one key share and any t of them must cooperate per
// decryption; the LSP side is unchanged — it only ever sees the public
// modulus.
type Coordinator struct {
	Params Params    // template; Params.N is the full roster size
	Loc    geo.Point // the coordinator's own real location
	Gen    dummy.Generator
	Rng    *rand.Rand

	// Key is the coordinator's sole key pair, generated once and reused
	// across queries. In threshold mode it is nil and TK/Share carry the
	// shared public key and the coordinator's own key share (index 1).
	Key   *paillier.PrivateKey
	TK    *paillier.ThresholdKey
	Share *paillier.KeyShare

	// KeygenTime is the one-time key generation cost, reported separately
	// from the per-query user cost.
	KeygenTime time.Duration

	// EncCache, when set, routes the indicator encryptions through a
	// shared encrypted-constant cache (DESIGN.md §15): the indicator
	// vectors re-encrypt the same tiny constant set (zeros and a one) on
	// every query, so a cache hit replaces the (1+N)^m exponentiation
	// with one modular multiply against a fresh randomness factor. Hits
	// are rerandomized, never replayed — see paillier.EncCache. Load
	// harnesses share one cache across many groups; the cache keys by
	// public key, so groups never see each other's entries.
	EncCache *paillier.EncCache

	// Offline encryption-randomness pools (see Precompute), pre[s-1] for
	// ε_s. They hold N^s-th residue factors for the encryption key, so they
	// work under a sole and under a threshold key alike. A sole key holds
	// its factorization, so its pools (and its online encryptions) compute
	// each factor by CRT; a threshold key has no factorization to use and
	// stays on r^{N^s} mod N^{s+1}.
	pre [2]*paillier.Precomputer
}

// NewCoordinator builds a sole-key coordinator: it alone can decrypt.
func NewCoordinator(p Params, loc geo.Point, rng *rand.Rand) (*Coordinator, error) {
	c, err := newCoordinator(p, loc, rng)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	key, err := paillier.GenerateKey(nil, c.Params.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("core: generating key: %w", err)
	}
	c.Key = key
	c.KeygenTime = time.Since(start)
	return c, nil
}

// NewThresholdCoordinator builds a threshold-mode coordinator for a
// (t, n) group. Key generation uses safe primes and is noticeably slower
// than NewCoordinator. The coordinator deals the key and keeps share
// index 1; the returned shares (indices 2..n) belong to the other users,
// in roster order. In deployment the dealer role is played by a
// distributed key generation; here the coordinator deals and forgets.
func NewThresholdCoordinator(p Params, loc geo.Point, rng *rand.Rand, t int) (*Coordinator, []*paillier.KeyShare, error) {
	c, err := newCoordinator(p, loc, rng)
	if err != nil {
		return nil, nil, err
	}
	if p.N < 2 {
		return nil, nil, fmt.Errorf("core: threshold mode needs n ≥ 2, got %d", p.N)
	}
	if t < 2 || t > p.N {
		return nil, nil, fmt.Errorf("core: threshold t=%d outside [2,%d]", t, p.N)
	}
	start := time.Now()
	tk, shares, err := paillier.GenerateThresholdKey(nil, p.KeyBits, p.N, t, c.AnswerDegree())
	if err != nil {
		return nil, nil, fmt.Errorf("core: threshold keygen: %w", err)
	}
	c.KeygenTime = time.Since(start)
	c.TK = tk
	c.Share = shares[0]
	return c, shares[1:], nil
}

func newCoordinator(p Params, loc geo.Point, rng *rand.Rand) (*Coordinator, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Space.Contains(loc) {
		return nil, fmt.Errorf("core: coordinator location %v outside space", loc)
	}
	if rng == nil {
		rng = dummy.NewRand()
	}
	// Fail early if the full-roster partition is infeasible; smaller
	// rosters are checked per Plan (Solve memoizes, so this is cheap).
	if p.Variant != VariantNaive {
		if _, err := partition.Solve(p.N, p.D, p.Delta); err != nil {
			return nil, err
		}
	}
	return &Coordinator{Params: p, Loc: loc, Gen: dummy.Uniform{}, Rng: rng}, nil
}

// DeltaPrime returns the candidate-query count δ' the LSP would process
// for a roster of n members (δ for the Naive variant).
func (c *Coordinator) DeltaPrime(n int) (int, error) {
	if c.Params.Variant == VariantNaive {
		return c.Params.Delta, nil
	}
	part, err := partition.Solve(n, c.Params.D, c.Params.Delta)
	if err != nil {
		return 0, err
	}
	return part.DeltaPrime, nil
}

// RoundPlan fixes one round's partition and hidden positions: which
// segment was drawn, the per-subgroup positions, and the roster size the
// partition was solved for. Every surviving member is addressed by a slot
// in [0, Size); the coordinator is always slot 0.
type RoundPlan struct {
	Size  int // roster size n' this round
	part  partition.Params
	seg   int
	xs    []int
	pos   []int // per-subgroup hidden position (index into the set)
	naive int   // common position, Naive variant
}

// Plan draws a fresh round plan for a roster of n members (coordinator
// included): lines 3–7 of Algorithm 1. It fails if the partition program
// is infeasible for n — the session layer treats that the same as a lost
// quorum, since no smaller roster will make δ reachable either.
func (c *Coordinator) Plan(n int) (*RoundPlan, error) {
	p := c.Params
	if p.Variant == VariantNaive {
		return &RoundPlan{Size: n, naive: c.Rng.Intn(p.Delta)}, nil
	}
	part, err := partition.Solve(n, p.D, p.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: re-partitioning for %d members: %w", n, err)
	}
	plan := &RoundPlan{Size: n, part: part}
	// Line 3: pick the segment by the size-weighted distribution (Eqn 11).
	plan.seg = sampleSegment(c.Rng, part.SegmentDist())
	// Lines 4–7: pick the per-subgroup positions.
	plan.xs = make([]int, part.Alpha)
	plan.pos = make([]int, part.Alpha)
	off := part.SegmentOffset(plan.seg)
	for j := range plan.xs {
		plan.xs[j] = c.Rng.Intn(part.DBar[plan.seg])
		plan.pos[j] = off + plan.xs[j]
	}
	return plan, nil
}

// sampleSegment draws a segment index from the distribution (Eqn 11).
func sampleSegment(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// SetSize returns the location-set size each member must contribute.
func (pl *RoundPlan) SetSize(p Params) int {
	if p.Variant == VariantNaive {
		return p.Delta
	}
	return p.D
}

// PosFor returns the hidden position for the member at the given slot.
func (pl *RoundPlan) PosFor(slot int) int {
	if pl.pos == nil {
		return pl.naive
	}
	return pl.pos[pl.part.SubgroupOfUser(slot)]
}

// Request builds the ContribRequest for one slot of the round.
func (pl *RoundPlan) Request(p Params, session uint64, round, slot int) *ContribRequest {
	return &ContribRequest{
		Session: session,
		Round:   round,
		Slot:    slot,
		Pos:     pl.PosFor(slot),
		SetSize: pl.SetSize(p),
		Space:   p.Space,
	}
}

// encPublic returns the key the indicator vectors are encrypted under.
func (c *Coordinator) encPublic() *paillier.PublicKey {
	if c.TK != nil {
		return &c.TK.PublicKey
	}
	return &c.Key.PublicKey
}

// KeyBytes returns the wire width of the modulus in bytes.
func (c *Coordinator) KeyBytes() int {
	return (c.encPublic().N.BitLen() + 7) / 8
}

// pools returns the coordinator's randomness pools, one per indicator
// degree the variant encrypts at (ε₁, and ε₂ for OPT — the answer's
// degree), creating them on first use.
func (c *Coordinator) pools() ([]*paillier.Precomputer, error) {
	pools := c.pre[:c.AnswerDegree()]
	for i := range pools {
		if pools[i] == nil {
			pre, err := c.encPublic().NewPrecomputer(i + 1)
			if err != nil {
				return nil, err
			}
			pools[i] = pre
		}
	}
	return pools, nil
}

// Precompute fills the coordinator's encryption-randomness pools while
// the device is idle (e.g. charging): the r^{N^s} factors depend only on
// the public key, so the next count indicator encryptions pay only the
// cheap plaintext-dependent part online. The pools drain one factor per
// ciphertext; call again before later queries. It returns the offline
// time spent.
func (c *Coordinator) Precompute(count int) (time.Duration, error) {
	start := time.Now()
	pools, err := c.pools()
	if err != nil {
		return 0, err
	}
	for _, pre := range pools {
		if err := pre.Fill(nil, count); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// StartRefill starts background refillers on the coordinator's
// randomness pools, so sustained query streams keep finding pooled
// factors without explicit Precompute calls between queries. o configures
// every refiller (o.Target is typically the expected indicator length of
// the next query; drain-based sizing happens on top — see
// paillier.RefillerOptions). The returned stop halts them and is safe to
// call more than once.
func (c *Coordinator) StartRefill(o paillier.RefillerOptions) (func(), error) {
	pools, err := c.pools()
	if err != nil {
		return nil, err
	}
	stops := make([]func(), len(pools))
	for i, pre := range pools {
		stops[i] = pre.StartRefiller(o)
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}

// BuildQuery builds the QueryMsg for a round plan (lines 9–10 of
// Algorithm 1): the encrypted indicator vector(s) at the plan's query
// index (Eqn 12). Location sets are NOT included — they come from the
// roster.
func (c *Coordinator) BuildQuery(pl *RoundPlan, meter *cost.Meter) (*QueryMsg, error) {
	start := time.Now()
	defer func() { meter.AddTime(cost.Users, time.Since(start)) }()

	p := c.Params
	msg := &QueryMsg{
		Variant: p.Variant, K: p.K, Agg: p.Agg,
		Theta0: p.Theta0, Gamma: p.Gamma, Eta: p.Eta, Phi: p.Phi,
		Sanitize: !p.NoSanitize, Include: p.IncludeIDs,
		PK: c.encPublic().N, Delta: p.Delta,
	}
	var err error
	switch p.Variant {
	case VariantNaive:
		msg.V, err = c.encryptIndicatorVec(p.Delta, pl.naive, 1, meter)
		return msg, err
	case VariantPPGNN:
		msg.NBar, msg.DBar = pl.part.NBar, pl.part.DBar
		qi := pl.part.QueryIndex(pl.seg, pl.xs)
		msg.V, err = c.encryptIndicatorVec(pl.part.DeltaPrime, qi, 1, meter)
		return msg, err
	case VariantOPT:
		msg.NBar, msg.DBar = pl.part.NBar, pl.part.DBar
		qi := pl.part.QueryIndex(pl.seg, pl.xs)
		omega := OptimalOmega(pl.part.DeltaPrime)
		cols := (pl.part.DeltaPrime + omega - 1) / omega
		if msg.V1, err = c.encryptIndicatorVec(cols, qi%cols, 1, meter); err != nil {
			return nil, err
		}
		msg.V2, err = c.encryptIndicatorVec(omega, qi/cols, 2, meter)
		return msg, err
	}
	return nil, fmt.Errorf("core: unknown variant %d", p.Variant)
}

// encryptIndicatorVec returns the element-wise encryption of the length-n
// indicator vector with a 1 at index one, under ε_degree of the public
// key, drawing pooled offline randomness (Precompute) when the degree's
// pool exists and going through the shared constant cache when EncCache
// is set.
func (c *Coordinator) encryptIndicatorVec(n, one, degree int, meter *cost.Meter) ([]*big.Int, error) {
	if one < 0 || one >= n {
		return nil, fmt.Errorf("core: indicator index %d outside [0,%d)", one, n)
	}
	bitVal := big.NewInt(0)
	oneVal := big.NewInt(1)
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = bitVal
	}
	ms[one] = oneVal
	pk, pre := c.encPublic(), c.pre[degree-1]
	// Fan the n encryptions across the process-default worker pool,
	// draining pooled offline randomness first when there is a pool (the
	// pooled/online split feeds the paper's cost model).
	var (
		cts    []*paillier.Ciphertext
		pooled int
		err    error
	)
	switch {
	case c.EncCache != nil:
		cts, pooled, err = c.EncCache.EncryptBatch(context.Background(), nil, nil, pk, pre, ms, degree)
	case pre != nil:
		cts, pooled, err = pre.EncryptBatch(context.Background(), nil, nil, ms)
	default:
		cts, err = pk.EncryptBatch(context.Background(), nil, nil, ms, degree)
	}
	if err != nil {
		return nil, fmt.Errorf("core: encrypting indicator: %w", err)
	}
	out := make([]*big.Int, n)
	for i, ct := range cts {
		out[i] = ct.C
	}
	meter.CountOp(fmt.Sprintf("enc%d", degree), int64(n-pooled))
	if pooled > 0 {
		meter.CountOp(fmt.Sprintf("enc%d-pooled", degree), int64(pooled))
	}
	return out, nil
}

// OwnContribution builds the coordinator's own location set for slot 0.
func (c *Coordinator) OwnContribution(pl *RoundPlan) *LocationMsg {
	set := c.Gen.LocationSet(c.Rng, c.Loc, pl.SetSize(c.Params), pl.PosFor(0), c.Params.Space)
	return &LocationMsg{UserID: 0, Set: set}
}

// AnswerDegree returns the ciphertext degree the LSP's answer arrives at.
func (c *Coordinator) AnswerDegree() int {
	if c.Params.Variant == VariantOPT {
		return 2
	}
	return 1
}

// Decrypt recovers the records of the LSP's answer and charges the
// coordinator's plaintext broadcast to the other size−1 participants.
// With a sole key the coordinator decrypts alone and others is never
// called. Under a threshold key it peels one layer per ciphertext degree
// (ε₂ then ε₁ for OPT, the ε₂ plaintexts being ε₁ ciphertexts): its own
// share vector plus the ones others returns for that layer — key-share
// index → one value per ciphertext, from at least T−1 other holders — are
// combined into the next layer's input. The coordinator's own
// computation lands on the meter as user time; time spent inside others
// does not (a shared-memory roster charges its users' work itself, a link
// roster is waiting on the network).
func (c *Coordinator) Decrypt(ans *AnswerMsg, size int, meter *cost.Meter,
	others func(degree int, cts []*big.Int) (map[int][]*big.Int, error)) ([]encode.Record, error) {
	if ans.Degree != c.AnswerDegree() {
		return nil, fmt.Errorf("core: answer degree %d, want %d", ans.Degree, c.AnswerDegree())
	}
	start := time.Now()
	var waited time.Duration
	defer func() { meter.AddTime(cost.Users, time.Since(start)-waited) }()

	ints := ans.Cts
	if c.TK == nil {
		var err error
		if ints, err = c.decryptSole(ans); err != nil {
			return nil, err
		}
		meter.CountOp(fmt.Sprintf("dec%d", ans.Degree), int64(len(ints)))
	} else {
		for degree := ans.Degree; degree >= 1; degree-- {
			own, err := PartialShares(c.TK, c.Share, degree, ints)
			if err != nil {
				return nil, err
			}
			asked := time.Now()
			shares, err := others(degree, ints)
			waited += time.Since(asked)
			if err != nil {
				return nil, err
			}
			shares[c.Share.Index] = own
			if ints, err = c.combine(degree, ints, shares); err != nil {
				return nil, err
			}
			meter.CountOp("threshold-dec", int64(len(ints)*c.TK.T))
		}
	}

	codec := encode.Codec{ModulusBits: c.encPublic().N.BitLen(), IncludeID: c.Params.IncludeIDs}
	records, err := codec.Decode(ints)
	if err != nil {
		return nil, fmt.Errorf("core: decoding answer: %w", err)
	}
	if size > 1 {
		recBytes := 8
		if c.Params.IncludeIDs {
			recBytes = 16
		}
		meter.AddBytes(cost.IntraGroup, (size-1)*(1+len(records)*recBytes))
	}
	return records, nil
}

// decryptSole decrypts the answer vector with the sole key, fanning the
// per-element CRT decryptions across the process-default worker pool (a
// double layered unwrap per element for the OPT degree-2 answer).
func (c *Coordinator) decryptSole(ans *AnswerMsg) ([]*big.Int, error) {
	cts := make([]*paillier.Ciphertext, len(ans.Cts))
	for i, cv := range ans.Cts {
		cts[i] = &paillier.Ciphertext{C: cv, S: ans.Degree}
	}
	var (
		ints []*big.Int
		err  error
	)
	if ans.Degree == 2 {
		ints, err = c.Key.DecryptLayeredBatch(context.Background(), nil, cts, 2)
	} else {
		ints, err = c.Key.DecryptBatch(context.Background(), nil, cts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: decrypting answer: %w", err)
	}
	return ints, nil
}

// combine recovers the plaintext of every ciphertext from the collected
// share vectors (key-share index → per-ciphertext share values, each the
// same length as cts). At least T entries are required; the T lowest
// indices are used, so the choice of shares is deterministic.
func (c *Coordinator) combine(degree int, cts []*big.Int, shares map[int][]*big.Int) ([]*big.Int, error) {
	if len(shares) < c.TK.T {
		return nil, fmt.Errorf("core: %d share vectors below threshold %d", len(shares), c.TK.T)
	}
	idxs := make([]int, 0, len(shares))
	for idx, vec := range shares {
		if len(vec) != len(cts) {
			return nil, fmt.Errorf("core: share vector %d has %d entries for %d ciphertexts", idx, len(vec), len(cts))
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	idxs = idxs[:c.TK.T]

	sets := make([][]*paillier.DecryptionShare, len(cts))
	for i := range cts {
		ds := make([]*paillier.DecryptionShare, len(idxs))
		for j, idx := range idxs {
			ds[j] = &paillier.DecryptionShare{Index: idx, S: degree, Value: shares[idx][i]}
		}
		sets[i] = ds
	}
	out, err := c.TK.CombineBatch(context.Background(), nil, sets)
	if err != nil {
		return nil, fmt.Errorf("core: combining shares: %w", err)
	}
	return out, nil
}

// Finish dequantizes decoded records into a Result.
func (c *Coordinator) Finish(records []encode.Record) *Result {
	res := &Result{Records: records, Points: make([]geo.Point, len(records))}
	for i, r := range records {
		res.Points[i] = r.Point(c.Params.Space)
	}
	return res
}
