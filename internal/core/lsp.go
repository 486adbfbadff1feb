package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"ppgnn/internal/cost"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/paillier"
	"ppgnn/internal/parallel"
	"ppgnn/internal/partition"
	"ppgnn/internal/rtree"
	"ppgnn/internal/sanitize"
)

// SearchFunc is the black-box group query engine (paper Section 1: "it
// treats the query answering as a black box"): anything mapping query
// locations to a ranked POI list can serve, including non-kGNN queries.
type SearchFunc func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result

// LSP is the location-based service provider: it owns the POI database and
// processes privacy-preserving queries (Algorithm 2). Process, Insert and
// Delete are safe for concurrent use: queries share a read lock on the
// database and each write takes it exclusively, so every candidate query of
// one Process call sees the same database version. Callers of Tree get the
// index itself, with no lock; they must not run beside Insert or Delete.
type LSP struct {
	Space geo.Rect
	// Search answers plaintext group queries; defaults to MBM over the
	// R-tree built by NewLSP. Process calls it under the database's read
	// lock, so it must not call Insert or Delete.
	Search SearchFunc
	// Workers bounds the per-query parallelism across candidate queries
	// and the homomorphic selection (1 = sequential, matching the paper's
	// single-threaded LSP cost accounting; 0 = 1; negative = GOMAXPROCS).
	// cmd/ppgnn and cmd/ppgnn-lsp set it to runtime.GOMAXPROCS(0), which
	// the GOMAXPROCS environment variable controls.
	Workers int
	// SanitizeSeed makes the Monte-Carlo sanitation reproducible; each
	// candidate query derives its own stream from it (default
	// DefaultSanitizeSeed).
	SanitizeSeed int64
	// Rerandomize refreshes the randomness of every answer ciphertext with
	// a homomorphic zero before returning it. The private selection's
	// output randomness is a deterministic function of the indicator
	// ciphertexts and the plaintext matrix; rerandomizing makes the answer
	// unlinkable to them (defense in depth — Privacy III needs only the
	// selection itself). The selection applies it: each online factor
	// r^{N^s} is one more term of its answer row's last squaring chain.
	Rerandomize bool
	// Coalesce, when set, submits the homomorphic batch phases (the
	// candidate fan-out and the private selection, rerandomization
	// included) to a server-shared cross-session
	// Coalescer instead of a per-query pool (DESIGN.md §15), so work from
	// concurrently admitted sessions merges into shared batches. Answers
	// stay byte-identical to the uncoalesced path: the paillier batch
	// forms draw all randomness serially before fanning out and task i
	// writes only slot i, so execution interleaving cannot change them.
	Coalesce *parallel.Coalescer
	// RerandPools, when set, supplies pooled r^{N^s} rerandomization
	// factors (shared across sessions, refilled in the background) for
	// the Rerandomize pass, used before any online factor.
	RerandPools *paillier.PoolSet

	tree *rtree.Tree
	// mu guards tree. It is a pointer so the copies WithCoalescer makes
	// share it with the original.
	mu *sync.RWMutex
}

// DefaultSanitizeSeed is the SanitizeSeed NewLSP sets.
const DefaultSanitizeSeed = 1

// DefaultMaxCandidates caps δ' per query: a hostile coordinator could
// otherwise submit partition parameters implying billions of candidate
// queries and stall the LSP. Privacy II rarely needs more than a few
// hundred; the paper's maximum is δ'≈200.
const DefaultMaxCandidates = 65536

// NewLSP builds an LSP over the POI database, indexed with one dynamic
// R-tree (Insert and Delete keep it live, the capability the paper
// contrasts against precomputation-based schemes).
func NewLSP(items []rtree.Item, space geo.Rect) *LSP {
	tree := rtree.Bulk(items, rtree.DefaultMaxEntries)
	return &LSP{
		Space:        space,
		SanitizeSeed: DefaultSanitizeSeed,
		tree:         tree,
		mu:           new(sync.RWMutex),
		Search: func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
			return (&gnn.MBM{Tree: tree, Agg: agg}).Search(query, k)
		},
	}
}

// Tree exposes the POI index (used by baselines sharing the database). It
// takes no lock: a caller reading the tree while another goroutine calls
// Insert or Delete races with the write.
func (l *LSP) Tree() *rtree.Tree { return l.tree }

// pool maps the Workers knob onto a parallel.Pool: 0 keeps the paper's
// sequential cost accounting, negative widths resolve to GOMAXPROCS.
func (l *LSP) pool() *parallel.Pool {
	w := l.Workers
	if w == 0 {
		w = 1
	}
	return parallel.New(w)
}

// cryptoPool is the pool for the per-query batch phases — the candidate
// fan-out and the homomorphic selection, rerandomization included, all leaf
// work with no nested pool submissions: the shared coalescer when
// configured, the per-query Workers pool otherwise.
func (l *LSP) cryptoPool() *parallel.Pool {
	if l.Coalesce != nil {
		return l.Coalesce.Pool()
	}
	return l.pool()
}

// WithCoalescer returns a shallow copy of the LSP whose homomorphic
// batch work is submitted to c (a nil c returns l itself). The copy
// shares the POI index; transport servers call this per admitted query
// so concurrent sessions coalesce into shared batches.
func (l *LSP) WithCoalescer(c *parallel.Coalescer) *LSP {
	if c == nil {
		return l
	}
	cp := *l
	cp.Coalesce = c
	return &cp
}

// Insert adds a POI to the live database. It waits for in-flight queries
// to finish their candidate phase.
func (l *LSP) Insert(it rtree.Item) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tree.Insert(it)
}

// Delete removes a POI from the live database. It waits like Insert.
func (l *LSP) Delete(it rtree.Item) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tree.Delete(it)
}

// Process runs Algorithm 2: candidate query generation, per-candidate kGNN
// + answer sanitation, answer encoding, and the homomorphic private
// selection. The meter (may be nil) accumulates the LSP computational cost
// and operation counts.
func (l *LSP) Process(q *QueryMsg, locs []*LocationMsg, meter *cost.Meter) (ans *AnswerMsg, err error) {
	start := time.Now()
	defer func() { meter.AddTime(cost.LSP, time.Since(start)) }()

	if err := l.validateQuery(q, locs); err != nil {
		return nil, err
	}
	n := len(locs)
	pk := paillier.NewPublicKey(q.PK)

	// Reassemble the location sets in user order: LSP reconstructs
	// subgroups from the user IDs (Section 4.2).
	ordered := make([][]geo.Point, n)
	for _, lm := range locs {
		ordered[lm.UserID] = lm.Set
	}

	// Candidate query list.
	candidates, err := l.candidates(q, ordered)
	if err != nil {
		return nil, err
	}
	meter.CountOp("candidates", int64(len(candidates)))

	sanitizing := q.Sanitize && n > 1
	encoded, err := l.answerCandidates(q, candidates, sanitizing)
	if err != nil {
		return nil, err
	}
	meter.CountOp("kgnn", int64(len(candidates)))
	if sanitizing {
		meter.CountOp("sanitize", int64(len(candidates)))
	}

	// Build the m × δ' answer matrix (line 6), padding answers to height m.
	m := 0
	for _, ints := range encoded {
		if len(ints) > m {
			m = len(ints)
		}
	}
	for t := range encoded {
		encoded[t] = encode.Pad(encoded[t], m)
	}

	// Private selection (line 7).
	switch q.Variant {
	case VariantOPT:
		return l.selectTwoPhase(pk, q, encoded, m, meter)
	default:
		return l.selectSinglePhase(pk, q, encoded, m, meter)
	}
}

// answerCandidates runs Algorithm 2's per-candidate lines: kGNN (line 3),
// sanitation (line 4) and encoding (line 5), under one read lock on the
// database so that all candidates answer from the same version of it.
func (l *LSP) answerCandidates(q *QueryMsg, candidates [][]geo.Point, sanitizing bool) ([][]*big.Int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	codec := encode.Codec{ModulusBits: q.PK.BitLen(), IncludeID: q.Include}
	pool := l.cryptoPool()
	sanCfg := l.sanitizer(q)
	// The sanitizer's working memory (≈(32 + 4n) bytes per point drawn;
	// the sequential test draws ≈2k points per candidate at the paper's
	// defaults, N_H = 12,116 at most) goes from candidate to candidate
	// through a free list as wide as the pool, and is garbage once this
	// query returns: a process-lifetime cache would sit in the live heap of
	// an idle server.
	var scratch chan *sanitize.Scratch
	if sanitizing {
		scratch = make(chan *sanitize.Scratch, pool.Workers())
	}
	encoded := make([][]*big.Int, len(candidates))
	err := pool.ForEach(context.Background(), len(candidates), func(t int) (taskErr error) {
		// A panic here would escape any recover installed by the caller
		// (transport sessions recover per session); convert it into a
		// query rejection so one hostile query cannot kill a serving
		// process.
		defer func() {
			if r := recover(); r != nil {
				taskErr = fmt.Errorf("core: candidate query %d panicked: %v", t, r)
			}
		}()
		res := l.Search(candidates[t], q.K, q.Agg)
		if sanitizing {
			var s *sanitize.Scratch
			select {
			case s = <-scratch:
			default:
				s = new(sanitize.Scratch)
			}
			rng := rand.New(rand.NewSource(l.SanitizeSeed + int64(t)))
			res = sanCfg.SanitizeWith(s, rng, res, candidates[t])
			select {
			case scratch <- s:
			default:
			}
		}
		records := make([]encode.Record, len(res))
		for i, r := range res {
			records[i] = encode.RecordOf(r.Item.ID, r.Item.P, l.Space)
		}
		ints := codec.Encode(records)
		for _, v := range ints {
			if v.Cmp(q.PK) >= 0 {
				return fmt.Errorf("core: encoded answer exceeds modulus")
			}
		}
		encoded[t] = ints
		return nil
	})
	if err != nil {
		return nil, err
	}
	return encoded, nil
}

// validateQuery checks message consistency against the location sets,
// and bounds δ' from the message's shape alone: the candidate list, the
// partition layout (memoized process-wide per shape) and the answer matrix
// all grow with it, so an over-cap query must be refused before any of
// them exists.
func (l *LSP) validateQuery(q *QueryMsg, locs []*LocationMsg) error {
	if q.Sanitize && len(locs) > 1 {
		if err := l.sanitizer(q).Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if dp := q.CandidateCount(); dp > DefaultMaxCandidates {
		return fmt.Errorf("core: query implies %d candidate queries, above this LSP's limit %d", dp, DefaultMaxCandidates)
	}
	if len(locs) == 0 {
		return fmt.Errorf("core: no location sets")
	}
	if q.K < 1 {
		return fmt.Errorf("core: k=%d < 1", q.K)
	}
	if q.PK == nil || q.PK.BitLen() < 128 {
		return fmt.Errorf("core: missing or undersized public key")
	}
	n := len(locs)
	seen := make([]bool, n)
	d := len(locs[0].Set)
	for _, lm := range locs {
		if lm.UserID < 0 || lm.UserID >= n || seen[lm.UserID] {
			return fmt.Errorf("core: bad or duplicate user id %d", lm.UserID)
		}
		seen[lm.UserID] = true
		if len(lm.Set) != d {
			return fmt.Errorf("core: user %d sent %d locations, others sent %d", lm.UserID, len(lm.Set), d)
		}
		for _, p := range lm.Set {
			if !l.Space.Contains(p) {
				return fmt.Errorf("core: user %d location %v outside service space", lm.UserID, p)
			}
		}
	}
	return nil
}

// sanitizer is the answer sanitizer the query asks for.
func (l *LSP) sanitizer(q *QueryMsg) sanitize.Config {
	return sanitize.Config{
		Theta0: q.Theta0, Gamma: q.Gamma, Eta: q.Eta, Phi: q.Phi,
		Space: l.Space, Agg: q.Agg,
	}
}

// candidates materializes the candidate query list for the query variant.
func (l *LSP) candidates(q *QueryMsg, ordered [][]geo.Point) ([][]geo.Point, error) {
	n := len(ordered)
	d := len(ordered[0])
	if q.Variant == VariantNaive {
		// Column i across all users is candidate i.
		if q.Delta != d {
			return nil, fmt.Errorf("core: naive query: δ=%d but location sets have %d entries", q.Delta, d)
		}
		if len(q.V) != d {
			return nil, fmt.Errorf("core: naive query: indicator length %d != δ=%d", len(q.V), d)
		}
		out := make([][]geo.Point, d)
		for t := 0; t < d; t++ {
			cand := make([]geo.Point, n)
			for u := 0; u < n; u++ {
				cand[u] = ordered[u][t]
			}
			out[t] = cand
		}
		return out, nil
	}

	deltaPrime := q.CandidateCount()
	params := partition.Params{
		N: n, D: d, Delta: q.Delta,
		Alpha: len(q.NBar), NBar: q.NBar, DBar: q.DBar,
		DeltaPrime: deltaPrime,
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	switch q.Variant {
	case VariantPPGNN:
		if len(q.V) != deltaPrime {
			return nil, fmt.Errorf("core: indicator length %d != δ'=%d", len(q.V), deltaPrime)
		}
	case VariantOPT:
		omega := len(q.V2)
		cols := len(q.V1)
		if omega < 1 || cols < 1 || omega*cols < deltaPrime {
			return nil, fmt.Errorf("core: OPT indicators cover %d < δ'=%d candidates", omega*cols, deltaPrime)
		}
	}
	return params.Candidates(ordered)
}

// CandidateCount returns the candidate-query count δ' the query implies,
// from its shape alone and saturating rather than overflowing on a
// hostile one. The LSP bounds it before materializing anything; trace
// attributes bucket it, and it never enters a trace raw.
func (q *QueryMsg) CandidateCount() int {
	if q.Variant == VariantNaive {
		return q.Delta
	}
	return partition.CandidateCount(len(q.NBar), q.DBar)
}

// selectSinglePhase computes A ⨂ [v] (Theorem 3.1) and returns m ε_1
// ciphertexts.
func (l *LSP) selectSinglePhase(pk *paillier.PublicKey, q *QueryMsg, encoded [][]*big.Int, m int, meter *cost.Meter) (*AnswerMsg, error) {
	v := make([]*paillier.Ciphertext, len(q.V))
	for i, c := range q.V {
		v[i] = &paillier.Ciphertext{C: c, S: 1}
	}
	rows := make([][]*big.Int, m)
	for i := 0; i < m; i++ {
		row := make([]*big.Int, len(encoded))
		for t := range encoded {
			row[t] = encoded[t][i]
		}
		rows[i] = row
	}
	var cts []*paillier.Ciphertext
	var err error
	if l.Rerandomize {
		pre, perr := l.rerandPool(pk, 1)
		if perr != nil {
			return nil, perr
		}
		cts, _, err = pk.MatSelectRerandomized(context.Background(), l.cryptoPool(), nil, pre, rows, v)
	} else {
		cts, err = pk.MatSelectBatch(context.Background(), l.cryptoPool(), rows, v)
	}
	if err != nil {
		return nil, fmt.Errorf("core: private selection: %w", err)
	}
	out := make([]*big.Int, m)
	for i, ct := range cts {
		out[i] = ct.C
	}
	meter.CountOp("homomorphic-dot", int64(m))
	return NewAnswerMsg(pk, 1, out), nil
}

// selectTwoPhase implements the two-phase private selection of Section 6:
// phase 1 selects a column within every block with [v1] under ε_1; phase 2
// selects the block with [[v2]] under ε_2, treating the phase-1 ε_1
// ciphertexts as ε_2 plaintexts.
func (l *LSP) selectTwoPhase(pk *paillier.PublicKey, q *QueryMsg, encoded [][]*big.Int, m int, meter *cost.Meter) (*AnswerMsg, error) {
	omega := len(q.V2)
	cols := len(q.V1)
	v1 := make([]*paillier.Ciphertext, cols)
	for i, c := range q.V1 {
		v1[i] = &paillier.Ciphertext{C: c, S: 1}
	}
	v2 := make([]*paillier.Ciphertext, omega)
	for i, c := range q.V2 {
		v2[i] = &paillier.Ciphertext{C: c, S: 2}
	}

	// Pad the matrix with zero columns to ω·cols (the paper pads v with
	// trailing 0s so that δ'/ω is an integer).
	zero := make([]*big.Int, m)
	for i := range zero {
		zero[i] = new(big.Int)
	}
	for len(encoded) < omega*cols {
		encoded = append(encoded, zero)
	}

	var cts []*paillier.Ciphertext
	var err error
	if l.Rerandomize {
		pre, perr := l.rerandPool(pk, 2)
		if perr != nil {
			return nil, perr
		}
		cts, _, err = pk.LayeredSelectRerandomized(context.Background(), l.cryptoPool(), nil, pre, encoded, v1, v2)
	} else {
		cts, err = pk.LayeredSelectBatch(context.Background(), l.cryptoPool(), encoded, v1, v2)
	}
	if err != nil {
		return nil, fmt.Errorf("core: layered selection: %w", err)
	}
	out := make([]*big.Int, m)
	for i, ct := range cts {
		out[i] = ct.C
	}
	meter.CountOp("homomorphic-dot", int64(m*(omega+1)))
	return NewAnswerMsg(pk, 2, out), nil
}

// rerandPool returns the pool of r^{N^s} factors the Rerandomize pass
// draws from first, or nil when the LSP has no RerandPools: the
// selection then pays its rerandomizers online, each riding its row's
// chain.
func (l *LSP) rerandPool(pk *paillier.PublicKey, s int) (*paillier.Precomputer, error) {
	if l.RerandPools == nil {
		return nil, nil
	}
	pre, err := l.RerandPools.For(pk, s)
	if err != nil {
		return nil, fmt.Errorf("core: rerandomizing answer: %w", err)
	}
	return pre, nil
}

// OptimalOmega returns the ω minimizing the OPT communication cost (Eqn
// 18): the nearest integer to √(δ'/2), clamped to [1, δ'].
func OptimalOmega(deltaPrime int) int {
	omega := int(math.Round(math.Sqrt(float64(deltaPrime) / 2)))
	if omega < 1 {
		omega = 1
	}
	if omega > deltaPrime {
		omega = deltaPrime
	}
	return omega
}
