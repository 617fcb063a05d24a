package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"d3l/internal/lsh"
	"d3l/internal/minhash"
)

// This file is the distance grid. Four of D3L's five distances are
// integers in disguise: N, V and F are 1 − eq/w over the w slots of two
// MinHash signatures (Broder), E is 1 − cos(π·h/b), clamped, over the
// Hamming distance h of two b-bit SimHash signatures (Charikar). So a
// pair carries each of them as a code — the number of slots or bits on
// which its two signatures disagree — and reads the float from a table
// filled by the very expressions the kernels evaluate, so every distance
// is the float it always was. Codes ascend with their distances, which
// lets Eq. 2 weigh a distance by counting the codes below it (eq2.go)
// instead of sorting and searching floats. D, the KS statistic, has no
// grid and stays a float64.

// NumCoded is the number of coded evidence types: N, V, F and E, the
// evidence types before EvidenceDomain.
const NumCoded = int(EvidenceDomain)

// maxGridWidth bounds MinHashSize and EmbedBits: a code is a uint16.
const maxGridWidth = math.MaxUint16

// CodedDistances is a pair's five evidence distances as the pipeline
// holds and ships them: N, V, F and E as codes into the grid of the
// engine's widths, D as the KS float.
type CodedDistances struct {
	Codes  [NumCoded]uint16
	Domain float64
}

// codeTable maps the codes of one kind to their distances.
type codeTable struct {
	// dist[c] is the distance code c stands for, non-decreasing in c.
	dist []float64
	// cut[c] is the first code whose distance lies above dist[c] − 1e-12:
	// Eq. 2 weighs a distance by the samples at most 1e-12 below it, and
	// those are exactly the codes below cut[c]. Usually the first code of
	// dist[c] itself, but not always: E's clamp puts h = b/2 at 1 − 2⁻⁵³,
	// within 1e-12 of the 1 every larger h clamps to.
	cut []uint16
}

// newCodeTable indexes a table of distances by code, refusing one whose
// distances fall anywhere as the code rises: counting codes below a cut
// is only the Eq. 2 count of distances below a float if they do not.
func newCodeTable(dist []float64) (codeTable, error) {
	for c := 1; c < len(dist); c++ {
		if !(dist[c-1] <= dist[c]) {
			return codeTable{}, fmt.Errorf("core: distance grid: code %d stands for %v, below code %d's %v", c, dist[c], c-1, dist[c-1])
		}
	}
	cut := make([]uint16, len(dist))
	j := 0
	for c := range dist {
		x := dist[c] - 1e-12
		if !(x < dist[c]) {
			return codeTable{}, fmt.Errorf("core: distance grid: code %d stands for %v, where 1e-12 below it is not below it", c, dist[c])
		}
		for dist[j] <= x {
			j++
		}
		cut[c] = uint16(j)
	}
	return codeTable{dist: dist, cut: cut}, nil
}

// distanceGrid holds the code tables of one pair of sketch widths.
type distanceGrid struct {
	minhashSize, embedBits int
	// jaccard maps N, V and F codes (disagreeing MinHash slots,
	// 0…minhashSize) to 1 − eq/minhashSize; cosine maps E codes (Hamming
	// distances, 0…embedBits) to the clamped cosine distance.
	jaccard, cosine codeTable
	// cosSim[h] is the cosine similarity cos(π·h/embedBits), which
	// Algorithm 2's I_E membership test compares with τ.
	cosSim []float64
}

// newDistanceGrid fills the code tables of a MinHash width and an
// embedding width.
func newDistanceGrid(minhashSize, embedBits int) (*distanceGrid, error) {
	if minhashSize <= 0 || minhashSize > maxGridWidth || embedBits <= 0 || embedBits > maxGridWidth {
		return nil, fmt.Errorf("core: distance grid: widths %d (MinHash) and %d (SimHash) must lie in [1, %d]", minhashSize, embedBits, maxGridWidth)
	}
	g := &distanceGrid{minhashSize: minhashSize, embedBits: embedBits, cosSim: make([]float64, embedBits+1)}
	jd := make([]float64, minhashSize+1)
	for c := range jd {
		// 1 − minhash.Similarity, eq = minhashSize − c slots agreeing.
		jd[c] = 1 - float64(minhashSize-c)/float64(minhashSize)
	}
	cd := make([]float64, embedBits+1)
	for h := range cd {
		g.cosSim[h] = lsh.HammingCosine(h, embedBits)
		cd[h] = lsh.HammingCosineDistance(h, embedBits)
	}
	var err error
	if g.jaccard, err = newCodeTable(jd); err != nil {
		return nil, err
	}
	if g.cosine, err = newCodeTable(cd); err != nil {
		return nil, err
	}
	return g, nil
}

// lastGrid is the grid gridFor built last. Every engine of a deployment
// shares one pair of widths, so one entry serves them all; other widths
// replace it, so however many a hostile peer names, the process holds
// one grid beyond its engines' own.
var lastGrid atomic.Pointer[distanceGrid]

// gridFor returns the grid of a pair of widths.
func gridFor(minhashSize, embedBits int) (*distanceGrid, error) {
	if g := lastGrid.Load(); g != nil && g.minhashSize == minhashSize && g.embedBits == embedBits {
		return g, nil
	}
	g, err := newDistanceGrid(minhashSize, embedBits)
	if err != nil {
		return nil, err
	}
	lastGrid.Store(g)
	return g, nil
}

// table is the code table of coded evidence type t.
func (g *distanceGrid) table(t Evidence) *codeTable {
	if t == EvidenceEmbedding {
		return &g.cosine
	}
	return &g.jaccard
}

// width is the largest code of evidence type t.
func (g *distanceGrid) width(t Evidence) int {
	if t == EvidenceEmbedding {
		return g.embedBits
	}
	return g.minhashSize
}

// none is the all-ones vector (no relatedness evidence at all), coded.
func (g *distanceGrid) none() CodedDistances {
	w := uint16(g.minhashSize)
	return CodedDistances{Codes: [NumCoded]uint16{w, w, w, uint16(g.embedBits)}, Domain: 1}
}

// distance is the type-t distance of a coded pair.
func (g *distanceGrid) distance(t Evidence, d *CodedDistances) float64 {
	if t == EvidenceDomain {
		return d.Domain
	}
	return g.table(t).dist[d.Codes[t]]
}

// vector expands a coded pair to its five distances.
func (g *distanceGrid) vector(d *CodedDistances) DistanceVector {
	return DistanceVector{
		g.jaccard.dist[d.Codes[EvidenceName]],
		g.jaccard.dist[d.Codes[EvidenceValue]],
		g.jaccard.dist[d.Codes[EvidenceFormat]],
		g.cosine.dist[d.Codes[EvidenceEmbedding]],
		d.Domain,
	}
}

// jaccardCode is the code of the Jaccard distance of two signatures
// (the tests' float oracle is jaccardDistance): the slots on which the
// signatures disagree, or minhashSize — distance 1, no evidence —
// when either is the empty set's or they are not two signatures of the
// grid's width.
func (g *distanceGrid) jaccardCode(a, b minhash.Signature) uint16 {
	if len(a) != g.minhashSize || a.Empty() || b.Empty() {
		return uint16(g.minhashSize)
	}
	miss, err := minhash.Mismatches(a, b)
	if err != nil {
		return uint16(g.minhashSize)
	}
	return uint16(miss)
}

// hamming is the E code of two embedding signatures, and false when
// they are not two signatures of the grid's width.
func (g *distanceGrid) hamming(a, b lsh.BitSignature) (uint16, bool) {
	h, err := lsh.Hamming(a, b)
	if err != nil || h > g.embedBits {
		return 0, false
	}
	return uint16(h), true
}
