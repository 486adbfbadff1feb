package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/partition"
	"ppgnn/internal/rtree"
	"ppgnn/internal/sanitize"
)

// The oracles recompute every answer in plaintext, outside the protocol:
// an exhaustive scan for the ranked POIs, and for sanitised answers a
// replay of the LSP's seeded sanitation of the one candidate that is the
// real query.

func lessResult(a, b gnn.Result) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Item.ID < b.Item.ID
}

// topK scans all items and returns the k best by aggregate cost (ties by
// id), holding only k results at a time so a million-POI scan stays cheap.
func topK(items []rtree.Item, query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
	best := make([]gnn.Result, 0, k+1)
	for _, it := range items {
		r := gnn.Result{Item: it, Cost: agg.Cost(it.P, query)}
		if len(best) == k && !lessResult(r, best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return lessResult(r, best[i]) })
		best = append(best, gnn.Result{})
		copy(best[i+1:], best[i:])
		best[i] = r
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// samePoints checks the decrypted records against the expected ranked
// POIs: same count, and every point within the quantisation tolerance.
func samePoints(got []encode.Record, want []gnn.Result, space geo.Rect) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: answer has %d POIs, want %d", len(got), len(want))
	}
	for i, w := range want {
		if d := got[i].Point(space).Dist(w.Item.P); d > 1e-6 {
			return fmt.Errorf("oracle: rank %d is %v, want %v (off by %g)", i, got[i].Point(space), w.Item.P, d)
		}
	}
	return nil
}

// realCandidate returns the index, in the LSP's candidate list, of the
// query made of the users' real locations.
func realCandidate(part partition.Params, locs []*core.LocationMsg, real []geo.Point) (int, error) {
	ordered := make([][]geo.Point, len(locs))
	for _, lm := range locs {
		ordered[lm.UserID] = lm.Set
	}
	cands, err := part.Candidates(ordered)
	if err != nil {
		return 0, err
	}
next:
	for t, cand := range cands {
		for u, p := range cand {
			if p != real[u] {
				continue next
			}
		}
		return t, nil
	}
	return 0, fmt.Errorf("oracle: the real query is not among the %d candidates", len(cands))
}

// sanitised replays the LSP's sanitation of candidate t: the LSP seeds
// candidate t's Monte-Carlo stream with SanitizeSeed+t, so the safe prefix
// is a pure function of the plaintext answer, the real locations and t.
func sanitised(lsp *core.LSP, q *core.QueryMsg, t int, answer []gnn.Result, real []geo.Point) []gnn.Result {
	rng := rand.New(rand.NewSource(lsp.SanitizeSeed + int64(t)))
	return sanitizeConfig(lsp, q).Sanitize(rng, answer, real)
}

// sanitizeConfig is the sanitizer the LSP builds for a query.
func sanitizeConfig(lsp *core.LSP, q *core.QueryMsg) sanitize.Config {
	return sanitize.Config{
		Theta0: q.Theta0, Gamma: q.Gamma, Eta: q.Eta, Phi: q.Phi,
		Space: lsp.Space, Agg: q.Agg,
	}
}

// churnState is the live set of POIs the churn workload has inserted and
// not yet deleted, oldest first, and the seeded source of the next batch.
type churnState struct {
	rng     *rand.Rand
	live    []rtree.Item
	nextID  int64
	anchors []geo.Point // where half of the inserts land: each group's best POI at set-up
}

const (
	churnFirstID = 1 << 40 // far above any database id
	// churnLiveBatches is how many batches stay live before deletes begin;
	// the warm-up queries reach that steady state.
	churnLiveBatches = 4
)

// nextBatch draws n POIs to insert — every other one within a few
// thousandths of an anchor, so answers keep changing — and, once
// churnLiveBatches batches are live, picks the n oldest POIs to delete.
func (cs *churnState) nextBatch(n int) (ins, del []rtree.Item) {
	for i := 0; i < n; i++ {
		p := geo.Point{X: cs.rng.Float64(), Y: cs.rng.Float64()}
		if i%2 == 0 {
			a := cs.anchors[cs.rng.Intn(len(cs.anchors))]
			p = geo.UnitRect.Clamp(geo.Point{X: a.X + cs.rng.NormFloat64()*0.002, Y: a.Y + cs.rng.NormFloat64()*0.002})
		}
		ins = append(ins, rtree.Item{ID: cs.nextID, P: p})
		cs.nextID++
	}
	if len(cs.live) >= churnLiveBatches*n {
		del = cs.live[:n:n]
	}
	return ins, del
}

// applied records that a batch went into the database.
func (cs *churnState) applied(ins, del []rtree.Item) {
	cs.live = append(cs.live[len(del):], ins...)
}

// merged is the incremental oracle: POIs of the database as loaded are
// never deleted, so the top-k of the live database is the top-k of (the
// top-k as loaded ∪ the live churn POIs) — O(live) per query, not a scan.
func (cs *churnState) merged(base []gnn.Result, query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
	all := append([]gnn.Result(nil), base...)
	for _, it := range cs.live {
		all = append(all, gnn.Result{Item: it, Cost: agg.Cost(it.P, query)})
	}
	sort.Slice(all, func(i, j int) bool { return lessResult(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// prepareOracles computes what the oracles need once per set-up. It is the
// harness's own cost and runs outside setup_s.
func (e *env) prepareOracles() {
	if e.w.Service {
		e.items = nil
		for _, seed := range tenantSeeds {
			e.items = append(e.items, dataset.Synthetic(seed, e.w.POIs))
		}
	}
	p := e.w.params()
	var anchors []geo.Point
	for _, c := range e.clients {
		for _, g := range c.groups {
			g.base = topK(e.items[g.tenant], g.real, p.K, p.Agg)
			anchors = append(anchors, g.base[0].Item.P)
		}
	}
	if e.w.Churn > 0 {
		e.churn = &churnState{rng: rand.New(rand.NewSource(e.seed*7919 + 13)), nextID: churnFirstID, anchors: anchors}
	}
}

// plainAnswer is the unsanitised plaintext answer for g against the
// database as it is now. With churn, call it while no write is pending
// between it and the query.
func (e *env) plainAnswer(g *group) []gnn.Result {
	if e.churn == nil {
		return g.base
	}
	p := e.w.params()
	return e.churn.merged(g.base, g.real, p.K, p.Agg)
}

// expected is what the decrypted records must equal: the plain answer,
// cut to the prefix the LSP's sanitation keeps when the query asked for it.
func (e *env) expected(g *group, plain []gnn.Result, q *core.QueryMsg, locs []*core.LocationMsg) ([]gnn.Result, error) {
	if !q.Sanitize || len(g.real) < 2 {
		return plain, nil
	}
	t, err := realCandidate(g.part, locs, g.real)
	if err != nil {
		return nil, err
	}
	return sanitised(e.lsps[g.tenant], q, t, plain, g.real), nil
}
