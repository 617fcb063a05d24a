package core

import (
	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/stats"
)

// jaccardDistance estimates a Jaccard distance between two set
// signatures, guarding the empty-set case (two empty signatures agree
// on every slot but carry no evidence, so the distance is maximal).
func jaccardDistance(a, b minhash.Signature) float64 {
	if a.Empty() || b.Empty() {
		return 1
	}
	d, err := minhash.Distance(a, b)
	if err != nil {
		return 1
	}
	return d
}

// jaccardSimilarity is the complementary estimate with the same guard.
func jaccardSimilarity(a, b minhash.Signature) float64 {
	return 1 - jaccardDistance(a, b)
}

// PairDistances computes the five evidence distances between a target
// attribute and a candidate attribute (Section III-B), with the
// Algorithm 2 guard for D-relatedness. targetSubject and candSubject
// are the profiles of the respective tables' subject attributes (nil
// when a table has none). Disabled evidence types report distance 1.
func (e *Engine) PairDistances(target, cand, targetSubject, candSubject *Profile) DistanceVector {
	return e.pairDistances(target, cand, targetSubject, candSubject, e.opts.Disabled)
}

// pairDistances is PairDistances under an explicit evidence mask — the
// per-query form: a query's Disabled mask (engine mask OR-ed with the
// QuerySpec override) selects which of the five distances are
// computed, without touching engine state.
func (e *Engine) pairDistances(target, cand, targetSubject, candSubject *Profile, disabled [NumEvidence]bool) DistanceVector {
	d := MaxDistances()
	if !disabled[EvidenceName] {
		d[EvidenceName] = jaccardDistance(target.QSig, cand.QSig)
	}
	if !disabled[EvidenceValue] && !target.Numeric && !cand.Numeric {
		d[EvidenceValue] = jaccardDistance(target.TSig, cand.TSig)
	}
	if !disabled[EvidenceFormat] {
		d[EvidenceFormat] = jaccardDistance(target.RSig, cand.RSig)
	}
	if !disabled[EvidenceEmbedding] && !target.EZero && !cand.EZero {
		if dist, err := lsh.CosineDistance(target.ESig, cand.ESig, e.opts.EmbedBits); err == nil {
			d[EvidenceEmbedding] = dist
		}
	}
	if !disabled[EvidenceDomain] {
		d[EvidenceDomain] = e.domainDistance(target, cand, targetSubject, candSubject, &d, &disabled)
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
// N and F distances are already in d (pairDistances fills them before
// calling here) unless the query's mask disabled that evidence, in which
// case the guard — which Algorithm 2 states over the indexes, not over
// the query's evidence selection — computes the Jaccard itself. Only a
// pair neither settles reaches the subject-attribute lookup and its up
// to four signature comparisons.
func (e *Engine) domainDistance(target, cand, targetSubject, candSubject *Profile, d *DistanceVector, disabled *[NumEvidence]bool) float64 {
	if !target.Numeric || !cand.Numeric {
		return 1
	}
	if len(target.NumExtent) == 0 || len(cand.NumExtent) == 0 {
		return 1
	}
	th := e.opts.Threshold
	guard := 1-guardDistance(d, disabled, EvidenceName, target.QSig, cand.QSig) >= th || // a' ∈ I_N.lookup(a)
		1-guardDistance(d, disabled, EvidenceFormat, target.RSig, cand.RSig) >= th || // a' ∈ I_F.lookup(a)
		(targetSubject != nil && candSubject != nil && e.attrRelatedAnyIndex(targetSubject, candSubject)) // i' ∈ I*.lookup(i)
	if !guard {
		return 1
	}
	// Extents hold the Profile.NumExtent sorted invariant, so the KS
	// statistic needs no per-pair copy-and-sort — this runs once per
	// guarded numeric candidate pair on the query hot path.
	assertSortedExtent(target, "domainDistance(target)")
	assertSortedExtent(cand, "domainDistance(cand)")
	ks, err := stats.KolmogorovSmirnovSorted(target.NumExtent, cand.NumExtent)
	if err != nil {
		return 1
	}
	return ks
}

// guardDistance is the N or F distance Algorithm 2's guard tests: the
// one pairDistances already put in d, or a Jaccard of its own when the
// query's mask kept that evidence out of d.
func guardDistance(d *DistanceVector, disabled *[NumEvidence]bool, t Evidence, a, b minhash.Signature) float64 {
	if disabled[t] {
		return jaccardDistance(a, b)
	}
	return d[t]
}

// attrRelatedAnyIndex is the existential I* lookup of Algorithm 2:
// membership in any of I_N, I_V, I_E, I_F at the configured threshold,
// decided on signature-estimated similarity (a sharper form of shared
// bucket membership).
func (e *Engine) attrRelatedAnyIndex(a, b *Profile) bool {
	if jaccardSimilarity(a.QSig, b.QSig) >= e.opts.Threshold {
		return true
	}
	if !a.Numeric && !b.Numeric && jaccardSimilarity(a.TSig, b.TSig) >= e.opts.Threshold {
		return true
	}
	if jaccardSimilarity(a.RSig, b.RSig) >= e.opts.Threshold {
		return true
	}
	if !a.EZero && !b.EZero {
		if sim, err := lsh.CosineSimilarity(a.ESig, b.ESig, e.opts.EmbedBits); err == nil && sim >= e.opts.Threshold {
			return true
		}
	}
	return false
}

// AttrRelated reports whether two attribute profiles are related by any
// index at the engine threshold (used by Algorithm 3's join-path guard
// and by the baselines' join variants).
func (e *Engine) AttrRelated(a, b *Profile) bool { return e.attrRelatedAnyIndex(a, b) }

// VSimilarity estimates the Jaccard similarity of two tsets (the
// V evidence), used by the SA-joinability test of Section IV.
func (e *Engine) VSimilarity(a, b *Profile) float64 {
	if a.Numeric || b.Numeric {
		return 0
	}
	return jaccardSimilarity(a.TSig, b.TSig)
}

// OverlapCoefficient estimates ov(T(a), T(a')) = |∩| / min(|T(a)|,
// |T(a')|) from the signatures and tset cardinalities via
// inclusion–exclusion: |∩| = J·(|A|+|B|)/(1+J).
func (e *Engine) OverlapCoefficient(a, b *Profile) float64 {
	if a.TSize == 0 || b.TSize == 0 {
		return 0
	}
	j := e.VSimilarity(a, b)
	inter := j * float64(a.TSize+b.TSize) / (1 + j)
	m := float64(a.TSize)
	if b.TSize < a.TSize {
		m = float64(b.TSize)
	}
	ov := inter / m
	if ov > 1 {
		ov = 1
	}
	if ov < 0 {
		ov = 0
	}
	return ov
}
