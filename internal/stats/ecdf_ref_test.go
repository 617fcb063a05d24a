package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The program builds ECDFs (NewECDF) but reads none: the query weighs
// Eq. 2 by counting. These readers check what NewECDF builds.

// P returns P(X <= x): one upper-bound binary search counts the samples
// at most x, ties included, so P is right-continuous. Like a sort, the
// search takes NaN samples (sorted first) as below every x.
func (e *ECDF) P(x float64) float64 {
	lo, hi := 0, len(e.sorted)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x < e.sorted[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return float64(lo) / float64(len(e.sorted))
}

// CCDF returns the complementary CDF 1 − P(X <= x), the weight
// w_it = 1 − P(d <= D_it) of Eq. 2.
func (e *ECDF) CCDF(x float64) float64 { return 1 - e.P(x) }

// Len reports the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// refP is the retired ECDF.P, kept as the oracle of the upper-bound
// search: a lower-bound sort.SearchFloat64s, then a walk over the
// samples equal to x.
func refP(sorted []float64, x float64) float64 {
	idx := sort.SearchFloat64s(sorted, x)
	for idx < len(sorted) && sorted[idx] <= x {
		idx++
	}
	return float64(idx) / float64(len(sorted))
}

// TestECDFPMatchesReference checks P bit for bit against refP on seeded
// samples sorted the way the query arena sorts them (slices.Sort, NaNs
// first), with heavy ties, ±0, and NaN samples, at every sample value,
// between samples, below and above the range, and at ±0, ±Inf and NaN.
func TestECDFPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	levels := []float64{math.Copysign(0, -1), 0, 0.125, 0.25, 0.5, 1}
	for trial := 0; trial < 500; trial++ {
		s := make([]float64, 1+rng.Intn(40))
		for i := range s {
			switch r := rng.Intn(10); {
			case r < 6:
				s[i] = levels[rng.Intn(len(levels))] // ties, and both zeros
			case r < 9:
				s[i] = rng.Float64()
			case trial%5 == 0:
				s[i] = math.NaN()
			default:
				s[i] = -rng.Float64()
			}
		}
		slices.Sort(s)
		xs := []float64{math.Inf(-1), -2, math.Copysign(0, -1), 0, 1e-12, 0.5 - 1e-12, 2, math.Inf(1), math.NaN()}
		for _, v := range s {
			xs = append(xs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		e := ECDF{sorted: s}
		for _, x := range xs {
			if got, want := e.P(x), refP(s, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: P(%v) = %v, reference %v over %v", trial, x, got, want, s)
			}
			if got, want := e.CCDF(x), 1-refP(s, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: CCDF(%v) = %v, reference %v", trial, x, got, want)
			}
		}
	}
}
