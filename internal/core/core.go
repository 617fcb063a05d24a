// Package core implements D3L itself: the five relatedness evidence
// types of Section III (names, values, formats, word embeddings, and
// numeric domain distributions), the four LSH indexes of Algorithm 1,
// the guarded Kolmogorov–Smirnov D-relatedness of Algorithm 2, the
// CCDF-weighted column aggregation of Eq. 1–2, the learned weighted
// L2-norm ranking of Eq. 3, and the resulting top-k dataset discovery
// query.
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrTableNotFound reports a lookup of a lake table name that is not
// indexed (never added, or already removed). Callers branch on it with
// errors.Is — the HTTP serving layer maps it to 404 — so every name
// miss in the engine wraps this sentinel rather than a generic error.
var ErrTableNotFound = errors.New("core: table not found")

// Evidence enumerates the five relatedness evidence types.
type Evidence int

const (
	// EvidenceName is N: q-gram Jaccard over attribute names.
	EvidenceName Evidence = iota
	// EvidenceValue is V: token-set (tset) Jaccard over extents.
	EvidenceValue
	// EvidenceFormat is F: regex-string (rset) Jaccard over extents.
	EvidenceFormat
	// EvidenceEmbedding is E: cosine over attribute embedding vectors.
	EvidenceEmbedding
	// EvidenceDomain is D: Kolmogorov–Smirnov over numeric extents.
	EvidenceDomain
	// NumEvidence is the number of evidence types.
	NumEvidence
)

// String implements fmt.Stringer.
func (e Evidence) String() string {
	switch e {
	case EvidenceName:
		return "N"
	case EvidenceValue:
		return "V"
	case EvidenceFormat:
		return "F"
	case EvidenceEmbedding:
		return "E"
	case EvidenceDomain:
		return "D"
	default:
		return fmt.Sprintf("Evidence(%d)", int(e))
	}
}

// DistanceVector carries one distance per evidence type, each in [0,1],
// with 1 meaning "maximally distant / no evidence" as in the paper.
type DistanceVector [NumEvidence]float64

// mean returns the unweighted mean of the components (used for greedy
// attribute alignment, not for ranking).
func (d DistanceVector) mean() float64 {
	var s float64
	for _, v := range d {
		s += v
	}
	return s / float64(NumEvidence)
}

// AttrRef addresses an attribute as (table id, column index) within a
// lake.
type AttrRef struct {
	TableID int
	Column  int
}

// Weights are the Eq. 3 evidence-type weights, learned by logistic
// regression in the paper. They must be non-negative and not all zero.
type Weights [NumEvidence]float64

// DefaultWeights are coefficients obtained by TrainWeights on the
// Synthetic benchmark ground truth (see the weights tests and
// EXPERIMENTS.md); the ordering matches the paper's observation that
// value evidence is the strongest single signal and format the weakest.
func DefaultWeights() Weights {
	return Weights{
		EvidenceName:      1.0,
		EvidenceValue:     1.6,
		EvidenceFormat:    0.5,
		EvidenceEmbedding: 1.1,
		EvidenceDomain:    0.7,
	}
}

// Validate checks weight sanity: every weight finite and non-negative,
// at least one positive. NaN and ±Inf are rejected explicitly — NaN
// slips past a `v < 0` test (all comparisons with NaN are false) and
// either would poison the Eq. 3 arithmetic and every cache key derived
// from the weight bits.
func (w Weights) Validate() error {
	var sum float64
	for i, v := range w {
		if math.IsNaN(v) {
			return fmt.Errorf("core: weight %s is NaN", Evidence(i))
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("core: weight %s is infinite (%v)", Evidence(i), v)
		}
		if v < 0 {
			return fmt.Errorf("core: weight %s is negative (%v)", Evidence(i), v)
		}
		sum += v
	}
	if sum == 0 {
		return fmt.Errorf("core: all evidence weights are zero")
	}
	return nil
}
