// Package mlearn implements the learning machinery D3L needs: logistic
// regression optimised by cyclic coordinate descent (the paper cites
// Hsieh et al.'s coordinate descent [30] for fitting the Eq. 3 evidence
// weights), plus train/test utilities. The same machinery trains the
// subject-attribute classifier of Section III-C.
package mlearn

import (
	"errors"
	"fmt"
	"math"
)

// Example is one labelled observation. Label must be 0 or 1.
type Example struct {
	Features []float64
	Label    float64
}

// Options configure training.
type Options struct {
	// Iterations is the number of full coordinate sweeps (default 100).
	Iterations int
	// L2 is the ridge penalty (default 1e-3): keeps weights finite on
	// separable data.
	L2 float64
	// Tol stops early when the largest coordinate update of a sweep is
	// below it (default 1e-6).
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.L2 <= 0 {
		o.L2 = 1e-3
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// LogisticModel is a trained binary classifier
// P(y=1|x) = sigmoid(w·x + b).
type LogisticModel struct {
	Weights []float64
	Bias    float64
}

// Sigmoid is the logistic function.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// TrainLogistic fits a logistic model with cyclic coordinate descent:
// each coordinate takes a Newton step on the partial gradient while the
// others stay fixed, which converges without a learning-rate schedule.
func TrainLogistic(examples []Example, opts Options) (*LogisticModel, error) {
	if len(examples) == 0 {
		return nil, errors.New("mlearn: no training examples")
	}
	dim := len(examples[0].Features)
	if dim == 0 {
		return nil, errors.New("mlearn: zero-dimensional features")
	}
	for i, ex := range examples {
		if len(ex.Features) != dim {
			return nil, fmt.Errorf("mlearn: example %d has %d features, want %d", i, len(ex.Features), dim)
		}
		if ex.Label != 0 && ex.Label != 1 {
			return nil, fmt.Errorf("mlearn: example %d has label %v, want 0 or 1", i, ex.Label)
		}
	}
	opts = opts.withDefaults()
	m := &LogisticModel{Weights: make([]float64, dim)}
	// Cache the margins so a coordinate update costs O(n).
	margins := make([]float64, len(examples))
	for sweep := 0; sweep < opts.Iterations; sweep++ {
		maxDelta := 0.0
		// Bias coordinate.
		delta := newtonStep(examples, margins, -1, 0, m.Bias)
		m.Bias += delta
		for i, ex := range examples {
			_ = ex
			margins[i] += delta
		}
		if d := math.Abs(delta); d > maxDelta {
			maxDelta = d
		}
		// Feature coordinates.
		for j := 0; j < dim; j++ {
			delta = newtonStep(examples, margins, j, opts.L2, m.Weights[j])
			if delta == 0 {
				continue
			}
			m.Weights[j] += delta
			for i := range examples {
				margins[i] += delta * examples[i].Features[j]
			}
			if d := math.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < opts.Tol {
			break
		}
	}
	return m, nil
}

// newtonStep computes the Newton update for coordinate j (j == -1 means
// the bias) given cached margins w·x+b.
func newtonStep(examples []Example, margins []float64, j int, l2, current float64) float64 {
	var grad, hess float64
	for i := range examples {
		p := Sigmoid(margins[i])
		x := 1.0
		if j >= 0 {
			x = examples[i].Features[j]
		}
		grad += (p - examples[i].Label) * x
		hess += p * (1 - p) * x * x
	}
	grad += l2 * current
	hess += l2
	if hess < 1e-12 {
		return 0
	}
	step := -grad / hess
	// Damp huge steps: Newton on flat sigmoids can overshoot.
	const maxStep = 10
	if step > maxStep {
		step = maxStep
	}
	if step < -maxStep {
		step = -maxStep
	}
	return step
}

// Predict returns P(y=1|x).
func (m *LogisticModel) Predict(features []float64) float64 {
	z := m.Bias
	for i, w := range m.Weights {
		if i < len(features) {
			z += w * features[i]
		}
	}
	return Sigmoid(z)
}

// Classify thresholds Predict at 0.5.
func (m *LogisticModel) Classify(features []float64) int {
	if m.Predict(features) >= 0.5 {
		return 1
	}
	return 0
}

// Accuracy reports the fraction of examples Classify labels correctly.
func Accuracy(m *LogisticModel, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	ok := 0
	for _, ex := range examples {
		if float64(m.Classify(ex.Features)) == ex.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(examples))
}
