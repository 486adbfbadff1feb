// Package attack implements adversary analyses against the protocol's
// privacy mechanisms, complementing the inequality attack of Section 5
// (which lives in internal/sanitize):
//
//   - Intersection: the classic multi-query attack on dummy anonymity. A
//     single query hides the user among d locations (Privacy I), but if the
//     same user issues repeated queries from the same place with fresh
//     independent dummies, the real location is the only one that recurs.
//     This is a known limitation of all dummy-based schemes (the paper's
//     included) and the reason dummy caches / consistent dummies exist in
//     the literature [17, 22]. The package quantifies how fast anonymity
//     decays and verifies that reusing a cached location set prevents it.
//
//   - DensityRank: a single-query heuristic adversary that ranks the d
//     locations by local POI density (users tend to be where POIs are).
//     Both uniform and grid-spread dummies mimic the *space*, not the POI
//     distribution, so on a clustered database this prior gives the LSP a
//     measurable edge over the nominal 1/d when users sit exactly at POIs
//     (the tests measure ≈0.4–0.5 top-1 accuracy at d=10 in that worst
//     case). Production deployments should draw dummies from a population
//     prior rather than uniformly — the Generator interface admits that.
//
//   - MinSpread and MinTop1Cost: single-query attacks on Privacy II. The
//     LSP sees δ′ candidate queries, and one of them is the tuple of real
//     locations. The paper's generators draw every user's dummies without
//     regard to the other users, so a dummy candidate mixes points
//     scattered over the space, while a group that meets nearby is
//     compact. Picking the candidate with the least spread, or the least
//     top-1 aggregate cost the LSP computes for every candidate anyway,
//     finds the real one far more often than 1/δ′ once the group is
//     co-located (the tests record the rates).
package attack

import (
	"math"
	"sort"

	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
)

// Intersection mounts the multi-query intersection attack: given the
// location sets one user sent across several queries (each of size d, with
// the real location present in every one), it returns the candidate real
// locations — the points that appear in every set, up to the matching
// tolerance eps.
func Intersection(sets [][]geo.Point, eps float64) []geo.Point {
	if len(sets) == 0 {
		return nil
	}
	candidates := append([]geo.Point(nil), sets[0]...)
	for _, set := range sets[1:] {
		var surviving []geo.Point
		for _, c := range candidates {
			for _, p := range set {
				if c.Dist(p) <= eps {
					surviving = append(surviving, c)
					break
				}
			}
		}
		candidates = surviving
		if len(candidates) == 0 {
			return nil
		}
	}
	return candidates
}

// AnonymityAfter returns the expected number of surviving candidates after
// q queries with d locations each when dummies are drawn independently and
// uniformly: 1 + (d−1)·P^(q−1), where P = 1 − (1 − π·eps²/area)^d is the
// probability that at least one of a later query's d fresh locations lands
// within eps of a fixed dummy. It quantifies the decay the Intersection
// attack exploits.
func AnonymityAfter(d, q int, eps float64, space geo.Rect) float64 {
	if q < 1 {
		return float64(d)
	}
	p := math.Pi * eps * eps / space.Area()
	if p > 1 {
		p = 1
	}
	pMatch := 1 - math.Pow(1-p, float64(d))
	return 1 + float64(d-1)*math.Pow(pMatch, float64(q-1))
}

// DensityRank ranks the locations of one set by descending local POI
// density (POIs within radius r), the heuristic prior "users are where the
// POIs are". It returns the indices into set, best guess first.
func DensityRank(set []geo.Point, db *rtree.Tree, r float64) []int {
	type scored struct {
		idx   int
		count int
	}
	scores := make([]scored, len(set))
	for i, p := range set {
		window := geo.Rect{
			Min: geo.Point{X: p.X - r, Y: p.Y - r},
			Max: geo.Point{X: p.X + r, Y: p.Y + r},
		}
		count := 0
		db.Search(window, func(it rtree.Item) bool {
			if it.P.Dist(p) <= r {
				count++
			}
			return true
		})
		scores[i] = scored{idx: i, count: count}
	}
	sort.SliceStable(scores, func(a, b int) bool { return scores[a].count > scores[b].count })
	out := make([]int, len(scores))
	for i, s := range scores {
		out[i] = s.idx
	}
	return out
}

// GuessAccuracy runs DensityRank over many (set, realIndex) observations
// and returns the fraction where the attacker's top guess was the real
// location. A value near 1/d means the dummies resist the heuristic.
func GuessAccuracy(sets [][]geo.Point, realIdx []int, db *rtree.Tree, r float64) float64 {
	if len(sets) == 0 || len(sets) != len(realIdx) {
		panic("attack: mismatched observations")
	}
	hits := 0
	for i, set := range sets {
		if DensityRank(set, db, r)[0] == realIdx[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(sets))
}

// MinSpread guesses the real query among one query's candidate tuples as
// the most compact one: the least sum of squared distances from its
// points to their centroid. It returns the index into cands, or −1 when
// cands is empty.
func MinSpread(cands [][]geo.Point) int {
	return argmin(cands, func(q []geo.Point) float64 {
		var c geo.Point
		for _, p := range q {
			c.X += p.X / float64(len(q))
			c.Y += p.Y / float64(len(q))
		}
		var ss float64
		for _, p := range q {
			d := p.Dist(c)
			ss += d * d
		}
		return ss
	})
}

// MinTop1Cost guesses the real query as the candidate whose best POI
// under s has the least aggregate cost: a group that meets nearby has a
// cheap meeting place, a tuple of scattered dummies does not. It returns
// the index into cands, or −1 when cands is empty.
func MinTop1Cost(cands [][]geo.Point, s gnn.Searcher) int {
	return argmin(cands, func(q []geo.Point) float64 {
		if top := s.Search(q, 1); len(top) > 0 {
			return top[0].Cost
		}
		return math.Inf(1)
	})
}

// argmin returns the index of the first candidate with the least score.
func argmin(cands [][]geo.Point, score func([]geo.Point) float64) int {
	best, bestScore := -1, math.Inf(1)
	for i, q := range cands {
		if v := score(q); best < 0 || v < bestScore {
			best, bestScore = i, v
		}
	}
	return best
}
