package main

import (
	"math"
	"sort"
)

// The estimators of this benchmark. Interference from neighbours on a
// shared box only ever adds time to an operation, so over R passes of
// the same operation slot the minimum is the de-noised service time.
// Quantiles are then taken across slots, which keeps what is real in
// the spread (wide and narrow targets) and drops what is not.

// allSlots keeps every slot.
func allSlots(int) bool { return true }

// slotMinima reduces lat[pass][slot] to the per-slot minimum over
// passes, for the slots keep selects.
func slotMinima(lat [][]float64, keep func(slot int) bool) []float64 {
	if len(lat) == 0 {
		return nil
	}
	var out []float64
	for s := range lat[0] {
		if !keep(s) {
			continue
		}
		m := math.Inf(1)
		for p := range lat {
			if lat[p][s] < m {
				m = lat[p][s]
			}
		}
		out = append(out, m)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// flatten returns every sample of the kept slots, all passes.
func flatten(lat [][]float64, keep func(slot int) bool) []float64 {
	var out []float64
	for p := range lat {
		for s, v := range lat[p] {
			if keep(s) {
				out = append(out, v)
			}
		}
	}
	return out
}

// noiseRatio is mean(all samples)/mean(slot minima) − 1: how much time
// the run spent above its own de-noised service time. It says how much
// to trust the run, and is never a gated metric.
func noiseRatio(lat [][]float64, keep func(slot int) bool) float64 {
	return mean(flatten(lat, keep))/mean(slotMinima(lat, keep)) - 1
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) gives them (the "exclusive"
// method), which is what the driver uses to judge spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	if n < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}
