package core

import (
	"errors"
	"fmt"
)

// ErrInvalidSpec reports a QuerySpec the engine refuses (a non-positive
// K, a negative budget, invalid weights, an evidence mask that disables
// everything). Every such error wraps it, so serving layers can answer
// the whole class as a client error (400).
var ErrInvalidSpec = errors.New("core: invalid query spec")

// QuerySpec is the per-query parameterisation of the Section III-D
// pipeline — the paper frames discovery as one parameterised query
// (evidence set, Eq. 3 weights, k, candidate budget), and QuerySpec is
// that parameter block. The zero value of every field other than K
// selects the paper's defaults, so QuerySpec{K: k} is the default top-k
// query.
type QuerySpec struct {
	// K is the answer size. It must be positive for SearchSpec.
	K int
	// Weights, when non-nil, replace DefaultWeights as the Eq. 3
	// evidence weights of this query.
	Weights *Weights
	// Disabled, when non-nil, switches evidence types off for this
	// query — e.g. a name+value-only unionability query, or the Exp 1
	// per-evidence runs. Disabled evidence contributes distance 1 and
	// weight 0. At least one type must stay enabled.
	Disabled *[NumEvidence]bool
	// CandidateBudget caps candidates gathered per target attribute
	// per index; 0 derives it from K (max(64, 4K)).
	CandidateBudget int
	// Uniform replaces the Eq. 2 CCDF weights with uniform weights in
	// the Eq. 1 aggregation — the ablation that isolates the
	// contribution of the distribution-aware weighting scheme. Omitted
	// from JSON when false, so shard request bodies of ordinary queries
	// do not carry it.
	Uniform bool `json:",omitempty"`
}

// specView is a validated QuerySpec with its defaults filled in: the
// evidence mask, weights and budget the pipeline runs with. It reads
// nothing from the engine, so a view can be built without holding the
// engine lock.
type specView struct {
	k        int
	budget   int
	disabled [NumEvidence]bool
	weights  Weights
	uniform  bool
}

// resolve validates the spec and fills in its defaults. Every error it
// returns wraps ErrInvalidSpec.
func (spec QuerySpec) resolve() (specView, error) {
	v := specView{
		k:       spec.K,
		weights: DefaultWeights(),
		uniform: spec.Uniform,
	}
	if spec.K <= 0 {
		return v, fmt.Errorf("%w: k must be positive, got %d", ErrInvalidSpec, spec.K)
	}
	if spec.CandidateBudget < 0 {
		return v, fmt.Errorf("%w: CandidateBudget must be non-negative, got %d", ErrInvalidSpec, spec.CandidateBudget)
	}
	if spec.Weights != nil {
		if err := spec.Weights.Validate(); err != nil {
			return v, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
		}
		v.weights = *spec.Weights
	}
	if spec.Disabled != nil {
		v.disabled = *spec.Disabled
	}
	allOff := true
	for t := range v.disabled {
		if !v.disabled[t] {
			allOff = false
			break
		}
	}
	if allOff {
		return v, fmt.Errorf("%w: every evidence type is disabled; the query can relate nothing", ErrInvalidSpec)
	}
	v.budget = spec.CandidateBudget
	if v.budget == 0 {
		v.budget = max(64, 4*spec.K)
	}
	return v, nil
}
