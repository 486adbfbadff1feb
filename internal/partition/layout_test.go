package partition

import (
	"testing"

	"ppgnn/internal/geo"
)

// TestLayoutMatchesDirectConstruction pins Candidates' ordering against
// an independent enumeration of Section 4.1's list: segments in order,
// then the cartesian product of the subgroups' positions in that segment
// in lexicographic order of (x_1, …, x_α), every user of subgroup j
// taking position x_j.
func TestLayoutMatchesDirectConstruction(t *testing.T) {
	shapes := []struct{ n, d, delta int }{
		{1, 4, 4},
		{3, 5, 10},
		{4, 6, 24},
		{5, 10, 40},
	}
	for _, sh := range shapes {
		p, err := Solve(sh.n, sh.d, sh.delta)
		if err != nil {
			t.Fatalf("Solve(%d,%d,%d): %v", sh.n, sh.d, sh.delta, err)
		}
		locSets := make([][]geo.Point, p.N)
		for u := range locSets {
			locSets[u] = make([]geo.Point, p.D)
			for i := range locSets[u] {
				locSets[u][i] = geo.Point{X: float64(u*100 + i), Y: float64(i)}
			}
		}
		var want [][]geo.Point
		off := 0
		for _, di := range p.DBar {
			x := make([]int, p.Alpha)
			for {
				q := make([]geo.Point, 0, p.N)
				for j, size := range p.NBar {
					for k := 0; k < size; k++ {
						u := len(q)
						q = append(q, locSets[u][off+x[j]])
					}
				}
				want = append(want, q)
				// Odometer step, x_α fastest.
				j := p.Alpha - 1
				for ; j >= 0; j-- {
					if x[j]++; x[j] < di {
						break
					}
					x[j] = 0
				}
				if j < 0 {
					break
				}
			}
			off += di
		}
		got, err := p.Candidates(locSets)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != p.DeltaPrime || len(want) != p.DeltaPrime {
			t.Fatalf("shape %+v: %d candidates, enumeration %d, want δ'=%d", sh, len(got), len(want), p.DeltaPrime)
		}
		for ct := range want {
			for u := range want[ct] {
				if got[ct][u] != want[ct][u] {
					t.Fatalf("shape %+v candidate %d user %d: got %v, want %v",
						sh, ct, u, got[ct][u], want[ct][u])
				}
			}
		}
	}
}
