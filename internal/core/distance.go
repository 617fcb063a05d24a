package core

import (
	"d3l/internal/minhash"
	"d3l/internal/stats"
)

// pairDistances computes the five evidence distances between a target
// attribute and the engine's attribute cand (Section III-B), coded on
// the engine's grid, with the Algorithm 2 guard for D-relatedness.
// targetSubject is the profile of the target table's subject attribute
// (nil when it has none); the candidate's is its table's. The query's
// Disabled mask selects which of the five distances are computed;
// disabled evidence types report distance 1. memo, when not nil, is the
// gathering column's distance memo (see distMemo), and target must then
// be that column's profile. Caller holds e.mu.
func (e *Engine) pairDistances(target, targetSubject *Profile, cand int, disabled [NumEvidence]bool, memo *distMemo) CodedDistances {
	g := e.grid
	c := &e.attrs[cand]
	d := g.none()
	if !disabled[EvidenceName] {
		d.Codes[EvidenceName] = memo.code(g, EvidenceName, target.QSig, &e.sigs, c.q)
	}
	if !disabled[EvidenceValue] && !target.Numeric && !c.is(attrNumeric) {
		d.Codes[EvidenceValue] = memo.code(g, EvidenceValue, target.TSig, &e.sigs, c.t)
	}
	if !disabled[EvidenceFormat] {
		d.Codes[EvidenceFormat] = memo.code(g, EvidenceFormat, target.RSig, &e.sigs, c.r)
	}
	if !disabled[EvidenceEmbedding] && !target.EZero && !c.is(attrEZero) {
		if h, ok := g.hamming(target.ESig, e.esig(cand)); ok {
			d.Codes[EvidenceEmbedding] = h
		}
	}
	if !disabled[EvidenceDomain] {
		d.Domain = e.domainDistance(target, targetSubject, cand, &d, &disabled, memo)
	}
	return d
}

// domainDistance implements Algorithm 2: the KS statistic is computed
// only for numeric-numeric pairs with blocking evidence — the two
// tables' subject attributes are related by any index, or the pair is
// N- or F-related — and is 1 otherwise.
//
// The guard is a disjunction of pure predicates, so the order they are
// tested in cannot be observed, and the cheapest goes first: the pair's
// N and F codes are already in d (pairDistances fills them before
// calling here) unless the query's mask disabled that evidence, in which
// case the guard — which Algorithm 2 states over the indexes, not over
// the query's evidence selection — computes the code itself. Only a
// pair neither settles reaches the subject-attribute lookup and its up
// to four signature comparisons.
func (e *Engine) domainDistance(target, targetSubject *Profile, cand int, d *CodedDistances, disabled *[NumEvidence]bool, memo *distMemo) float64 {
	c := &e.attrs[cand]
	if !target.Numeric || !c.is(attrNumeric) {
		return 1
	}
	if len(target.NumExtent) == 0 || len(c.extent) == 0 {
		return 1
	}
	th := e.opts.Threshold
	jd := e.grid.jaccard.dist
	guard := 1-jd[guardCode(e.grid, d, disabled, memo, EvidenceName, target.QSig, &e.sigs, c.q)] >= th || // a' ∈ I_N.lookup(a)
		1-jd[guardCode(e.grid, d, disabled, memo, EvidenceFormat, target.RSig, &e.sigs, c.r)] >= th || // a' ∈ I_F.lookup(a)
		(targetSubject != nil && e.subjects[c.table] >= 0 && e.attrRelatedAnyIndex(targetSubject, e.subjects[c.table])) // i' ∈ I*.lookup(i)
	if !guard {
		return 1
	}
	// Extents hold the Profile.NumExtent sorted invariant, so the KS
	// statistic needs no per-pair copy-and-sort — this runs once per
	// guarded numeric candidate pair on the query hot path.
	assertSortedExtent(target.NumExtent, target.Name, "domainDistance(target)")
	assertSortedExtent(c.extent, c.name, "domainDistance(cand)")
	ks, err := stats.KolmogorovSmirnovSorted(target.NumExtent, c.extent)
	if err != nil {
		return 1
	}
	return ks
}

// guardCode is the N or F code Algorithm 2's guard tests: the one
// pairDistances already put in d, or a code of its own when the query's
// mask kept that evidence out of d (through the memo, like
// pairDistances; the candidate's signature is the copy under bID).
func guardCode(g *distanceGrid, d *CodedDistances, disabled *[NumEvidence]bool, memo *distMemo, t Evidence, a minhash.Signature, sigs *sigTable, bID int32) uint16 {
	if disabled[t] {
		return memo.code(g, t, a, sigs, bID)
	}
	return d.Codes[t]
}

// attrRelatedAnyIndex is the existential I* lookup of Algorithm 2 of a
// profile and the engine's attribute b: membership in any of I_N, I_V,
// I_E, I_F at the configured threshold, decided on signature-estimated
// similarity (a sharper form of shared bucket membership), read off the
// engine's grid. Caller holds e.mu.
func (e *Engine) attrRelatedAnyIndex(a *Profile, b int) bool {
	g, rb, th := e.grid, &e.attrs[b], e.opts.Threshold
	jd := g.jaccard.dist
	if 1-jd[g.jaccardCode(a.QSig, e.sigs.sig(rb.q))] >= th {
		return true
	}
	if !a.Numeric && !rb.is(attrNumeric) && 1-jd[g.jaccardCode(a.TSig, e.sigs.sig(rb.t))] >= th {
		return true
	}
	if 1-jd[g.jaccardCode(a.RSig, e.sigs.sig(rb.r))] >= th {
		return true
	}
	if !a.EZero && !rb.is(attrEZero) {
		if h, ok := g.hamming(a.ESig, e.esig(b)); ok && g.cosSim[h] >= th {
			return true
		}
	}
	return false
}

// OverlapCoefficient estimates ov(T(a), T(a')) = |∩| / min(|T(a)|,
// |T(a')|) of attribute ids a and b from their records' signatures and
// tset cardinalities via inclusion–exclusion: |∩| = J·(|A|+|B|)/(1+J),
// with J the V evidence's Jaccard estimate. It backs the
// SA-joinability test of Section IV; a numeric attribute has no tset,
// and overlaps nothing, and neither does a removed one.
func (e *Engine) OverlapCoefficient(a, b int) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ra, rb := &e.attrs[a], &e.attrs[b]
	if ra.is(attrNumeric) || rb.is(attrNumeric) || ra.tSize == 0 || rb.tSize == 0 {
		return 0
	}
	g := e.grid
	j := 1 - g.jaccard.dist[g.jaccardCode(e.sigs.sig(ra.t), e.sigs.sig(rb.t))]
	inter := j * float64(ra.tSize+rb.tSize) / (1 + j)
	return min(max(inter/float64(min(ra.tSize, rb.tSize)), 0), 1)
}
