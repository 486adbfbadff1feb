package gnn

import (
	"math"

	"ppgnn/internal/geo"
	"ppgnn/internal/rtree"
)

// This file implements the two other group-NN algorithms of Papadias et
// al. (ICDE 2004) beside MBM — the Single Point Method and the Multiple
// Query Method. The paper's protocol only needs one plaintext kGNN engine,
// but all three are provided (a) to cross-validate MBM, and (b) for the
// ablation benchmarks comparing the LSP's C_q term across methods
// (BenchmarkAblationGNNMethods).

// SPM is the Single Point Method: stream POIs in ascending distance from
// the query centroid q and stop once the triangle-inequality lower bound
// for any unseen POI exceeds the current k-th best aggregate.
//
// For a POI p with dist(p, q) = r the bounds used are:
//
//	Sum: Σ_i dist(p, l_i) ≥ n·r − Σ_i dist(q, l_i)
//	Max: max_i dist(p, l_i) ≥ r − min_i dist(q, l_i)
//	Min: min_i dist(p, l_i) ≥ r − max_i dist(q, l_i)
//
// all from |dist(p, l_i) − dist(q, l_i)| ≤ dist(p, q).
type SPM struct {
	Tree *rtree.Tree
	Agg  Aggregate
}

var _ Searcher = (*SPM)(nil)

// Search implements Searcher.
func (s *SPM) Search(query []geo.Point, k int) []Result {
	if k <= 0 || len(query) == 0 || s.Tree.Len() == 0 {
		return nil
	}
	q := geo.Centroid(query)
	sumQ, minQ, maxQ := 0.0, math.Inf(1), 0.0
	for _, l := range query {
		d := q.Dist(l)
		sumQ += d
		if d < minQ {
			minQ = d
		}
		if d > maxQ {
			maxQ = d
		}
	}
	lower := func(r float64) float64 {
		switch s.Agg {
		case Sum:
			return float64(len(query))*r - sumQ
		case Max:
			return r - minQ
		case Min:
			return r - maxQ
		default:
			panic("gnn: unknown aggregate")
		}
	}

	best := kBest{k: k, size: s.Tree.Len()}
	it := s.Tree.NearestIter(q)
	for {
		item, r, ok := it.Next()
		if !ok {
			break
		}
		if best.full() && lower(r) > best.worst() {
			break // every later POI is at least this far from q
		}
		best.add(Result{Item: item, Cost: s.Agg.Cost(item.P, query)})
	}
	return best.sorted()
}

// MQM is the Multiple Query Method: one incremental NN stream per query
// point, combined threshold-algorithm style. Each round advances the
// stream with the smallest current threshold; newly seen POIs are scored
// exactly (random access to coordinates); the search stops when
// F(τ_1, …, τ_n) — a lower bound for every unseen POI — reaches the k-th
// best score.
type MQM struct {
	Tree *rtree.Tree
	Agg  Aggregate
}

var _ Searcher = (*MQM)(nil)

// Search implements Searcher.
func (m *MQM) Search(query []geo.Point, k int) []Result {
	if k <= 0 || len(query) == 0 || m.Tree.Len() == 0 {
		return nil
	}
	iters := make([]*rtree.NearestIter, len(query))
	tau := make([]float64, len(query))
	exhausted := make([]bool, len(query))
	for i, l := range query {
		iters[i] = m.Tree.NearestIter(l)
	}
	seen := make(map[int64]bool)
	best := kBest{k: k, size: m.Tree.Len()}
	remaining := m.Tree.Len()
	for seenCount := 0; seenCount < remaining; {
		// Advance the stream with the smallest threshold (round-robin over
		// the minimum keeps all τ_i balanced, the classic TA schedule).
		pick := -1
		for i := range iters {
			if exhausted[i] {
				continue
			}
			if pick == -1 || tau[i] < tau[pick] {
				pick = i
			}
		}
		if pick == -1 {
			break
		}
		item, d, ok := iters[pick].Next()
		if !ok {
			exhausted[pick] = true
			continue
		}
		tau[pick] = d
		if !seen[item.ID] {
			seen[item.ID] = true
			seenCount++
			best.add(Result{Item: item, Cost: m.Agg.Cost(item.P, query)})
		}
		// Unseen POIs have dist(·, l_i) ≥ τ_i for every i, hence aggregate
		// ≥ F(τ). Stop when that can no longer beat the k-th best.
		if best.full() && m.Agg.Combine(tau) >= best.worst() {
			break
		}
	}
	return best.sorted()
}
