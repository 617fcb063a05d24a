package mlearn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearlySeparable builds a 2-feature dataset split by x0 + x1 > 1.
func linearlySeparable(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		x0, x1 := rng.Float64()*2, rng.Float64()*2
		label := 0.0
		if x0+x1 > 2 {
			label = 1
		}
		out[i] = Example{Features: []float64{x0, x1}, Label: label}
	}
	return out
}

func TestTrainLogisticSeparable(t *testing.T) {
	examples := linearlySeparable(400, 1)
	m, err := TrainLogistic(examples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, examples); acc < 0.95 {
		t.Fatalf("training accuracy %v on separable data, want >= 0.95", acc)
	}
	// Both features push positive.
	if m.Weights[0] <= 0 || m.Weights[1] <= 0 {
		t.Fatalf("weights %v should both be positive", m.Weights)
	}
}

func TestTrainLogisticNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	examples := linearlySeparable(400, 2)
	for i := range examples {
		if rng.Float64() < 0.1 { // 10% label noise
			examples[i].Label = 1 - examples[i].Label
		}
	}
	m, err := TrainLogistic(examples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, examples); acc < 0.8 {
		t.Fatalf("accuracy %v with 10%% noise, want >= 0.8", acc)
	}
}

func TestTrainLogisticValidation(t *testing.T) {
	if _, err := TrainLogistic(nil, Options{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
	if _, err := TrainLogistic([]Example{{Features: nil, Label: 0}}, Options{}); err == nil {
		t.Fatal("expected error for empty features")
	}
	if _, err := TrainLogistic([]Example{
		{Features: []float64{1}, Label: 0},
		{Features: []float64{1, 2}, Label: 1},
	}, Options{}); err == nil {
		t.Fatal("expected error for inconsistent dims")
	}
	if _, err := TrainLogistic([]Example{{Features: []float64{1}, Label: 0.5}}, Options{}); err == nil {
		t.Fatal("expected error for non-binary label")
	}
}

func TestPredictBounds(t *testing.T) {
	m := &LogisticModel{Weights: []float64{5, -3}, Bias: 0.2}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e100 || math.Abs(b) > 1e100 {
			return true // w·x overflow is out of scope for feature vectors in [0,1]
		}
		p := m.Predict([]float64{a, b})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Symmetry property.
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		return math.Abs(Sigmoid(z)+Sigmoid(-z)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyThreshold(t *testing.T) {
	m := &LogisticModel{Weights: []float64{1}, Bias: 0}
	if m.Classify([]float64{10}) != 1 || m.Classify([]float64{-10}) != 0 {
		t.Fatal("Classify threshold wrong")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := &LogisticModel{Weights: []float64{1}}
	if Accuracy(m, nil) != 0 {
		t.Fatal("accuracy over empty set should be 0")
	}
}

func TestL2KeepsWeightsFinite(t *testing.T) {
	// Perfectly separable one-feature data: without regularisation the
	// MLE diverges; L2 must keep weights bounded.
	var examples []Example
	for i := 0; i < 50; i++ {
		examples = append(examples, Example{Features: []float64{1}, Label: 1})
		examples = append(examples, Example{Features: []float64{-1}, Label: 0})
	}
	m, err := TrainLogistic(examples, Options{Iterations: 500, L2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(m.Weights[0], 0) || math.IsNaN(m.Weights[0]) || math.Abs(m.Weights[0]) > 1e4 {
		t.Fatalf("weight diverged: %v", m.Weights[0])
	}
	if Accuracy(m, examples) != 1 {
		t.Fatal("should perfectly classify separable data")
	}
}
