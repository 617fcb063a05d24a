package core

import (
	"context"
	"fmt"
	"strings"

	"d3l/internal/mlearn"
)

// PairExplanation is one row of a Table I-style structure: a target
// column paired with a source column and their five evidence distances.
type PairExplanation struct {
	TargetColumn string         `json:"targetColumn"`
	SourceColumn string         `json:"sourceColumn"`
	Distances    DistanceVector `json:"distances"`
}

// Explain computes the full pairwise distance rows between a prepared
// target and one lake table, reproducing the structure of Table I. Only
// pairs related by at least one index (distance < 1 on some evidence)
// are reported, as in the paper's grouping step. The spec's evidence
// mask applies to every pair distance (K and the remaining spec fields
// do not affect explanations), and cancellation is checked between
// target columns — a cancelled call returns ctx.Err(), never partial
// rows.
func (e *Engine) Explain(ctx context.Context, target *Target, lakeTable string, spec QuerySpec) ([]PairExplanation, error) {
	// K does not shape an explanation; resolve is reused only for its
	// validation and evidence-mask merge.
	spec.K = 1
	view, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	tid, ok := e.lake.IDByName(lakeTable)
	if !ok {
		return nil, fmt.Errorf("%w: no table %q in the lake", ErrTableNotFound, lakeTable)
	}
	var rows []PairExplanation
	for i := range target.profiles {
		tp := &target.profiles[i]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, attrID := range e.byTable[tid] {
			coded := e.pairDistances(tp, target.subject, attrID, view.disabled, nil)
			d := e.grid.vector(&coded)
			related := false
			for _, v := range d {
				if v < 1 {
					related = true
					break
				}
			}
			if related {
				rows = append(rows, PairExplanation{
					TargetColumn: tp.Name,
					SourceColumn: e.attrs[attrID].name,
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
