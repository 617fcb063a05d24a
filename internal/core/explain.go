package core

import (
	"context"
	"fmt"
	"strings"

	"d3l/internal/mlearn"
	"d3l/internal/table"
)

// PairExplanation is one row of a Table I-style structure: a target
// column paired with a source column and their five evidence distances.
type PairExplanation struct {
	TargetColumn string
	SourceColumn string
	Distances    DistanceVector
}

// ExplainSpec computes the full pairwise distance rows between a target
// table and one lake table, reproducing the structure of Table I. Only
// pairs related by at least one index (distance < 1 on some evidence)
// are reported, as in the paper's grouping step. The spec's evidence
// mask applies to every pair distance (K and the remaining spec fields
// do not affect explanations), and cancellation is checked between
// target columns — a cancelled call returns ctx.Err(), never partial
// rows.
func (e *Engine) ExplainSpec(ctx context.Context, target *table.Table, lakeTable string, spec QuerySpec) ([]PairExplanation, error) {
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	// Check the name before profiling the target: profiling is the
	// dominant cost and must not be spent on the error path.
	e.mu.RLock()
	_, ok := e.lake.IDByName(lakeTable)
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: no table %q in the lake", ErrTableNotFound, lakeTable)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tprofiles := e.ProfileTarget(target)
	var tsubject *Profile
	for i := range tprofiles {
		if tprofiles[i].Subject {
			tsubject = &tprofiles[i]
		}
	}
	return e.ExplainProfiled(ctx, target, tprofiles, tsubject, lakeTable, spec)
}

// ExplainProfiled is ExplainSpec with the target already profiled — the
// unified query path profiles once and reuses the result for both the
// ranking and the explanation. tprofiles/tsubject must come from
// ProfileTarget on exactly target.
func (e *Engine) ExplainProfiled(ctx context.Context, target *table.Table, tprofiles []Profile, tsubject *Profile, lakeTable string, spec QuerySpec) ([]PairExplanation, error) {
	// K does not shape an explanation; resolve is reused only for its
	// validation and evidence-mask merge.
	spec.K = 1
	view, err := e.resolve(spec)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Re-resolve under the query lock: the table may have been removed
	// between any earlier check and here.
	tid, ok := e.lake.IDByName(lakeTable)
	if !ok {
		return nil, fmt.Errorf("%w: no table %q in the lake", ErrTableNotFound, lakeTable)
	}
	var candSubject *Profile
	if s := e.subjects[tid]; s >= 0 {
		candSubject = &e.profiles[s]
	}
	var rows []PairExplanation
	for i := range tprofiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, attrID := range e.byTable[tid] {
			cand := &e.profiles[attrID]
			d := e.pairDistances(&tprofiles[i], cand, tsubject, candSubject, view.disabled, nil)
			related := false
			for _, v := range d {
				if v < 1 {
					related = true
					break
				}
			}
			if related {
				rows = append(rows, PairExplanation{
					TargetColumn: target.Columns[i].Name,
					SourceColumn: cand.Name,
					Distances:    d,
				})
			}
		}
	}
	return rows, nil
}

// FormatExplanation renders explanation rows as the paper's Table I.
func FormatExplanation(rows []PairExplanation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %6s %6s %6s %6s\n", "Pair", "DN", "DV", "DF", "DE", "DD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			"("+r.TargetColumn+","+r.SourceColumn+")",
			r.Distances[EvidenceName], r.Distances[EvidenceValue],
			r.Distances[EvidenceFormat], r.Distances[EvidenceEmbedding],
			r.Distances[EvidenceDomain])
	}
	return b.String()
}

// LabelledPair is a training example for the Eq. 3 weights: the Eq. 1
// vector of a (target, source) pair plus its ground-truth relatedness.
type LabelledPair struct {
	Vector  DistanceVector
	Related bool
}

// TrainWeights fits the Eq. 3 evidence weights as the paper does
// (Section III-D): a logistic-regression classifier over the five
// Eq. 1 distances, optimised by coordinate descent, whose coefficient
// magnitudes become the weights. Distances are negated features
// (smaller distance means more related), so related pairs are the
// positive class and useful coefficients come out positive; negatives
// are clamped to a small floor since Eq. 3 weights must be
// non-negative.
func TrainWeights(pairs []LabelledPair, opts mlearn.Options) (Weights, float64, error) {
	if len(pairs) == 0 {
		return Weights{}, 0, fmt.Errorf("core: no training pairs")
	}
	examples := make([]mlearn.Example, len(pairs))
	for i, p := range pairs {
		features := make([]float64, NumEvidence)
		for t := 0; t < int(NumEvidence); t++ {
			features[t] = 1 - p.Vector[t] // similarity, so weights come out positive
		}
		label := 0.0
		if p.Related {
			label = 1
		}
		examples[i] = mlearn.Example{Features: features, Label: label}
	}
	model, err := mlearn.TrainLogistic(examples, opts)
	if err != nil {
		return Weights{}, 0, err
	}
	acc := mlearn.Accuracy(model, examples)
	var w Weights
	const floor = 0.05
	for t := 0; t < int(NumEvidence); t++ {
		c := model.Weights[t]
		if c < floor {
			c = floor
		}
		w[t] = c
	}
	return w, acc, nil
}
