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
// that parameter block. The zero value of every field selects the
// engine-level configuration, so QuerySpec{K: k} is the default top-k
// query.
type QuerySpec struct {
	// K is the answer size. It must be positive for SearchSpec.
	K int
	// Weights, when non-nil, replace the engine's Eq. 3 evidence
	// weights for this query only.
	Weights *Weights
	// Disabled, when non-nil, is a per-query evidence mask OR-ed with
	// the engine-level mask: evidence the engine disabled stays
	// disabled (its candidates may not be indexed), and the query can
	// disable more — e.g. a name+value-only unionability query.
	// Disabled evidence contributes distance 1 and weight 0, exactly
	// like the engine-level ablation switches.
	Disabled *[NumEvidence]bool
	// CandidateBudget caps candidates gathered per target attribute
	// per index for this query; 0 falls back to the engine option
	// (which itself derives from k when unset).
	CandidateBudget int
}

// specView is a QuerySpec resolved against an engine's options: the
// effective evidence mask, weights and budget the pipeline runs with.
// All resolved fields come from immutable engine options (Parallelism,
// the one mutable option, is read separately under the lock), so a view
// can be built without holding the engine lock.
type specView struct {
	k        int
	budget   int
	disabled [NumEvidence]bool
	weights  Weights
	uniform  bool
}

// resolve validates the spec and merges it with the engine options.
// Every error it returns wraps ErrInvalidSpec.
func (e *Engine) resolve(spec QuerySpec) (specView, error) {
	v := specView{
		k:        spec.K,
		disabled: e.opts.Disabled,
		weights:  e.opts.Weights,
		uniform:  e.opts.UniformEq1Weights,
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
		for t := range v.disabled {
			v.disabled[t] = v.disabled[t] || spec.Disabled[t]
		}
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
		v.budget = e.opts.CandidateBudget
	}
	if v.budget == 0 {
		v.budget = 4 * spec.K
		if v.budget < 64 {
			v.budget = 64
		}
	}
	return v, nil
}
