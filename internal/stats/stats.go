// Package stats provides the statistical primitives D3L relies on: the
// two-sample Kolmogorov–Smirnov statistic for numeric domain-distribution
// relatedness (the D evidence, Section III-C), empirical CDF/CCDF used
// by the Eq. 2 weighting scheme, and descriptive statistics backing the
// Fig. 2 repository profiles.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample reports a KS computation over an empty extent.
var ErrEmptySample = errors.New("stats: empty sample")

// KolmogorovSmirnovSorted computes the two-sample KS statistic
// sup_x |F1(x) − F2(x)| over the empirical CDFs of sa and sb, which the
// caller guarantees are sorted ascending. It is symmetric, bounded in
// [0, 1], and 0 iff the sorted multisets induce identical step
// functions. It performs no allocations: profile extents are kept
// sorted from the moment they are built, so no distance computation
// re-sorts them.
func KolmogorovSmirnovSorted(sa, sb []float64) (float64, error) {
	if len(sa) == 0 || len(sb) == 0 {
		return 1, ErrEmptySample
	}
	var d float64
	i, j := 0, 0
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF; the input is copied.
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, ErrEmptySample
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Summary holds descriptive statistics of a sample (Fig. 2 style).
type Summary struct {
	Count         int
	Mean, Std     float64
	Min, Max      float64
	P25, P50, P75 float64
	P90, P95, P99 float64
}

// Describe computes a Summary. It returns an error on empty input.
func Describe(sample []float64) (Summary, error) {
	if len(sample) == 0 {
		return Summary{}, ErrEmptySample
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	for _, v := range s {
		sq += (v - mean) * (v - mean)
	}
	std := 0.0
	if len(s) > 1 {
		std = math.Sqrt(sq / float64(len(s)-1))
	}
	return Summary{
		Count: len(s),
		Mean:  mean, Std: std,
		Min: s[0], Max: s[len(s)-1],
		P25: Quantile(s, 0.25), P50: Quantile(s, 0.5), P75: Quantile(s, 0.75),
		P90: Quantile(s, 0.90), P95: Quantile(s, 0.95), P99: Quantile(s, 0.99),
	}, nil
}

// Quantile returns the q-quantile of a sorted sample by linear
// interpolation. q outside [0,1] is clamped.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
