package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: fewer and the figure is one or two outliers, not
// a property of the system.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile with the usual even-count midpoint.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentileChecked is percentile, refused when fewer than minBeyond
// samples lie beyond it (p90 needs 100 samples, p99 needs 1000).
func percentileChecked(xs []float64, p float64) (float64, error) {
	beyond := float64(len(xs)) * (100 - p) / 100
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %.1f", p, minBeyond, len(xs), beyond)
	}
	return percentile(xs, p), nil
}

// tailPercentiles are the candidates pickTail chooses from, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// pickTail returns the highest tail percentile that n samples support
// under the minBeyond rule, or 50 when even p75 has too few beyond it.
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), the
// rule the acceptance spread is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
