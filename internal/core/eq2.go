package core

import (
	"cmp"
	"slices"
)

// This file is Eq. 2 by counting. The weight of a distance d of type t
// for a target column is 1 − P(D ≤ d − 1e-12) over R_t, the distances
// of that type between the column and all its candidates. A coded
// distance's place in R_t is a count: one pass counts each cell's codes,
// a prefix sum turns the counts into "samples below code c", and the
// grid's cut table names the code to read for d − 1e-12 — no sort, no
// search, and the same float ECDF.CCDF gave: 1 − float64(below)/float64(n).
// D keeps its floats, as runs of equal values with the count below each;
// most of a D cell is the 1 of every pair that is not numeric on both
// sides, so a column sorts only its numeric KS values.
//
// A shard ships the counts, sparse (ColumnDists), and the coordinator
// adds them up: the merged cells are the monolith's, count for count.

// eq2Weights holds one query's R_t distributions by target column, in
// the form the Eq. 2 lookups read. It lives on a query arena (a
// monolith query's or a shard gather's) or on the merge's scratch.
type eq2Weights struct {
	grid *distanceGrid
	cols int
	// n[col] is the sample count of each of the column's five cells (a
	// candidate pair adds one sample to each).
	n []int32
	// below holds the coded cells, stride entries a column: N, V and F
	// (wj = minhashSize+1 codes each), then E (embedBits+1). After
	// finish, below[c] of a cell is the number of its samples with a
	// code below c; before, the number with code c.
	below      []int32
	stride, wj int
	// domain holds every column's D runs back to back, column col's at
	// domain[domainAt[col]:domainAt[col+1]].
	domain   []domainRun
	domainAt []int32
	// vals is the counting pass's buffer of a column's D values other
	// than 1.
	vals []float64
}

// domainRun is one distinct D value of a column's cell and the number
// of the cell's samples below it. Runs ascend in the order slices.Sort
// gives float64s (cmp.Less: NaNs first), one run per value under
// cmp.Compare.
type domainRun struct {
	value  float64
	before int32
}

// reset sizes q for numCols target columns on grid g, every count zero.
func (q *eq2Weights) reset(g *distanceGrid, numCols int) {
	q.grid, q.cols = g, numCols
	q.wj = g.minhashSize + 1
	q.stride = 3*q.wj + g.embedBits + 1
	q.n = zeroed(q.n, numCols)
	q.below = zeroed(q.below, numCols*q.stride)
	q.domain = q.domain[:0]
	q.domainAt = append(q.domainAt[:0], 0)
}

// zeroed returns s with length n and every element zero.
func zeroed(s []int32, n int) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// cell is the coded cell of evidence type t of column col.
func (q *eq2Weights) cell(col int, t Evidence) []int32 {
	off := col*q.stride + int(t)*q.wj
	return q.below[off : off+q.grid.width(t)+1]
}

// count fills q, reset for len(cols) columns, from the gathered pairs of
// every column: one counting pass over each column's pairs, and a sort of
// its D values other than 1. Call finish before the lookups.
func (q *eq2Weights) count(cols [][]candidatePair) {
	for col, pairs := range cols {
		q.n[col] = int32(len(pairs))
		base := q.below[col*q.stride:]
		n, v, f, e := base[:q.wj], base[q.wj:2*q.wj], base[2*q.wj:3*q.wj], base[3*q.wj:q.stride]
		vals, ones := q.vals[:0], int32(0)
		for i := range pairs {
			d := &pairs[i].dist
			n[d.Codes[EvidenceName]]++
			v[d.Codes[EvidenceValue]]++
			f[d.Codes[EvidenceFormat]]++
			e[d.Codes[EvidenceEmbedding]]++
			if d.Domain == 1 {
				ones++
			} else {
				vals = append(vals, d.Domain)
			}
		}
		slices.Sort(vals)
		q.vals = vals
		q.domain = appendDomainRuns(q.domain, vals, ones)
		q.domainAt = append(q.domainAt, int32(len(q.domain)))
	}
}

// appendDomainRuns appends the runs of one D cell: its samples other
// than 1, sorted, and ones samples equal to 1.
func appendDomainRuns(dst []domainRun, sorted []float64, ones int32) []domainRun {
	var before int32
	for i := 0; i < len(sorted) || ones > 0; {
		run := domainRun{value: 1, before: before}
		if ones > 0 && (i == len(sorted) || cmp.Less(1.0, sorted[i])) {
			before += ones
			ones = 0
		} else {
			j := i + 1
			for j < len(sorted) && cmp.Compare(sorted[j], sorted[i]) == 0 {
				j++
			}
			run.value = sorted[i]
			before += int32(j - i)
			i = j
		}
		dst = append(dst, run)
	}
	return dst
}

// finish turns every coded cell's counts into counts below each code.
func (q *eq2Weights) finish() {
	for col := 0; col < q.cols; col++ {
		for t := Evidence(0); t < EvidenceDomain; t++ {
			cell, below := q.cell(col, t), int32(0)
			for c, n := range cell {
				cell[c] = below
				below += n
			}
		}
	}
}

// weight returns the Eq. 2 weight 1 − P(D ≤ dist − 1e-12) of a row's
// type-t distance dist (the distance d codes) for the given target
// column: evaluated strictly below dist, so the weight at the smallest
// observed distance stays positive and Eq. 1 does not zero out exactly
// the strongest signals. With no distribution the weight falls back to
// the complementary distance (closer pairs weigh more); in the
// uniform-weighting ablation, where the receiver is nil, it is 1.
func (q *eq2Weights) weight(col int, t Evidence, d *CodedDistances, dist float64) float64 {
	if q == nil {
		return 1
	}
	if col < q.cols {
		if n := q.n[col]; n > 0 {
			var below int32
			if t == EvidenceDomain {
				below = q.domainBelow(col, dist-1e-12)
			} else {
				below = q.below[col*q.stride+int(t)*q.wj+int(q.grid.table(t).cut[d.Codes[t]])]
			}
			return 1 - float64(below)/float64(n)
		}
	}
	return 1 - dist
}

// domainBelow counts column col's D samples at most x — below the first
// run whose value exceeds x, the upper-bound search ECDF.P makes over
// the flat samples.
func (q *eq2Weights) domainBelow(col int, x float64) int32 {
	runs := q.domain[q.domainAt[col]:q.domainAt[col+1]]
	lo, hi := 0, len(runs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x < runs[m].value {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(runs) {
		return q.n[col]
	}
	return runs[lo].before
}

// export renders q's counts (before finish) as the sparse distributions
// a shard partial ships: per column, each coded cell's codes that occur
// with their counts, and the D runs with theirs. The cells are
// three-index sub-slices of two slabs, so an append to one cannot reach
// the next.
func (q *eq2Weights) export() []ColumnDists {
	codes := 0
	for _, n := range q.below {
		if n != 0 {
			codes++
		}
	}
	dists := make([]ColumnDists, q.cols)
	cslab := make([]CodeCount, 0, codes)
	rslab := make([]DomainRun, 0, len(q.domain))
	for col := range dists {
		for t := Evidence(0); t < EvidenceDomain; t++ {
			start := len(cslab)
			for c, n := range q.cell(col, t) {
				if n != 0 {
					cslab = append(cslab, CodeCount{Code: uint16(c), Count: n})
				}
			}
			dists[col].Coded[t] = cslab[start:len(cslab):len(cslab)]
		}
		runs := q.domain[q.domainAt[col]:q.domainAt[col+1]]
		start := len(rslab)
		for i, r := range runs {
			next := q.n[col]
			if i+1 < len(runs) {
				next = runs[i+1].before
			}
			rslab = append(rslab, DomainRun{Value: r.value, Count: next - r.before})
		}
		dists[col].Domain = rslab[start:len(rslab):len(rslab)]
	}
	return dists
}

// merge fills q, reset for the partials' columns, with the sum of their
// distributions: each coded cell's counts added code by code, each D
// cell's runs merged. The partials are validated and their pair counts
// sum to at most MaxInt32, so no count overflows. heads is scratch for
// the runs being merged, returned grown. Call finish before the lookups.
func (q *eq2Weights) merge(partials []*ShardPartial, heads [][]DomainRun) [][]DomainRun {
	for col := 0; col < q.cols; col++ {
		heads = heads[:0]
		for _, p := range partials {
			cd := &p.Dists[col]
			for t := Evidence(0); t < EvidenceDomain; t++ {
				cell := q.cell(col, t)
				for _, cc := range cd.Coded[t] {
					cell[cc.Code] += cc.Count
				}
			}
			for _, r := range cd.Domain {
				q.n[col] += r.Count
			}
			heads = append(heads, cd.Domain)
		}
		q.domain = mergeSortedRuns(q.domain, heads)
		q.domainAt = append(q.domainAt, int32(len(q.domain)))
	}
	clear(heads)
	return heads
}

// mergeSortedRuns appends to dst the merge of one D cell's runs from
// several shards, each ascending in the order slices.Sort gives float64s
// (cmp.Less: NaNs first) with one run per value: the runs the shards'
// samples make together, equal values' counts added. The runs are
// consumed: the slice headers in runs are advanced to empty.
func mergeSortedRuns(dst []domainRun, runs [][]DomainRun) []domainRun {
	var before int32
	for {
		least := -1
		for i, run := range runs {
			if len(run) > 0 && (least < 0 || cmp.Less(run[0].Value, runs[least][0].Value)) {
				least = i
			}
		}
		if least < 0 {
			return dst
		}
		v := runs[least][0].Value
		dst = append(dst, domainRun{value: v, before: before})
		for i, run := range runs {
			if len(run) > 0 && cmp.Compare(run[0].Value, v) == 0 {
				before += run[0].Count
				runs[i] = run[1:]
			}
		}
	}
}
