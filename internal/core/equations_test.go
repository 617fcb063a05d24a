package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAggregateEq1HandComputed checks the Eq. 1 column aggregation on a
// hand-computed Table I-style structure.
func TestAggregateEq1HandComputed(t *testing.T) {
	// Two alignment rows for one table, single evidence of interest.
	aligns := []Alignment{
		{TargetColumn: 0, Distances: DistanceVector{0.2, 1, 1, 1, 1}},
		{TargetColumn: 1, Distances: DistanceVector{0.6, 1, 1, 1, 1}},
	}
	// R_N for column 0: {0.2, 0.8}; for column 1: {0.6, 0.9}.
	pairs := []refPair{
		{targetCol: 0, dist: DistanceVector{0.2, 1, 1, 1, 1}},
		{targetCol: 0, dist: DistanceVector{0.8, 1, 1, 1, 1}},
		{targetCol: 1, dist: DistanceVector{0.6, 1, 1, 1, 1}},
		{targetCol: 1, dist: DistanceVector{0.9, 1, 1, 1, 1}},
	}
	ecdfs := refSampleCells(2, pairs)
	// Weights: w(0, N, 0.2) = P(d > 0.2-) = 1 (both 0.2 and 0.8 are >=
	// 0.2); w(1, N, 0.6) = 1 likewise (0.6 and 0.9 >= 0.6).
	vec := aggregateEq1(aligns, ecdfs, [NumEvidence]bool{})
	want := (1*0.2 + 1*0.6) / 2.0
	if math.Abs(vec[EvidenceName]-want) > 1e-9 {
		t.Fatalf("Eq1 N aggregate = %v, want %v", vec[EvidenceName], want)
	}
}

func TestEq2WeightsFavourSmallestDistance(t *testing.T) {
	// With R = {0.1, 0.5, 0.9}, the 0.1 observation is the smallest in
	// the distribution, so its CCDF weight must exceed 0.9's.
	pairs := []refPair{
		{targetCol: 0, dist: DistanceVector{0.1, 1, 1, 1, 1}},
		{targetCol: 0, dist: DistanceVector{0.5, 1, 1, 1, 1}},
		{targetCol: 0, dist: DistanceVector{0.9, 1, 1, 1, 1}},
	}
	ecdfs := refSampleCells(1, pairs)
	wLow := ecdfs.refWeight(0, EvidenceName, 0.1)
	wHigh := ecdfs.refWeight(0, EvidenceName, 0.9)
	if wLow <= wHigh {
		t.Fatalf("weight(0.1)=%v should exceed weight(0.9)=%v", wLow, wHigh)
	}
	if wLow != 1 {
		t.Fatalf("smallest distance should get weight 1, got %v", wLow)
	}
}

func TestEq2WeightNilECDFs(t *testing.T) {
	var d *refECDFs
	if d.refWeight(0, EvidenceName, 0.3) != 1 {
		t.Fatal("nil ECDFs (uniform ablation) should weight 1")
	}
}

func TestCombineEq3HandComputed(t *testing.T) {
	w := Weights{1, 2, 0, 0, 0}
	vec := DistanceVector{0.5, 0.25, 1, 1, 1}
	// Raw Eq. 3: sqrt(((1*0.5)^2 + (2*0.25)^2) / (1+2)); normalised by
	// the all-ones maximum sqrt((1^2+2^2)/(1+2)).
	want := math.Sqrt((0.25+0.25)/3.0) / math.Sqrt(5.0/3.0)
	got := combineEq3(w, [NumEvidence]bool{}, vec)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eq3 = %v, want %v", got, want)
	}
}

func TestCombineEq3Bounded(t *testing.T) {
	w := Weights{4, 14, 0.05, 0.05, 13}
	if d := combineEq3(w, [NumEvidence]bool{}, maxDistances()); math.Abs(d-1) > 1e-12 {
		t.Fatalf("all-ones vector should score exactly 1, got %v", d)
	}
	if d := combineEq3(w, [NumEvidence]bool{}, DistanceVector{}); d != 0 {
		t.Fatalf("zero vector should score 0, got %v", d)
	}
}

func TestCombineEq3AllZeroWeights(t *testing.T) {
	if combineEq3(Weights{}, [NumEvidence]bool{}, DistanceVector{0, 0, 0, 0, 0}) != 1 {
		t.Fatal("zero weights should yield max distance")
	}
}

func TestCombineEq3MonotoneProperty(t *testing.T) {
	w := DefaultWeights()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b DistanceVector
		for i := range a {
			a[i] = rng.Float64()
			// b dominates a component-wise.
			b[i] = a[i] + (1-a[i])*rng.Float64()
		}
		return combineEq3(w, [NumEvidence]bool{}, a) <= combineEq3(w, [NumEvidence]bool{}, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignColumnsPicksBestPerTargetColumn(t *testing.T) {
	e := &Engine{attrs: []attr{{table: 0, column: 0}, {table: 0, column: 1}}}
	pairs := []refPair{
		{targetCol: 0, attrID: 0, dist: DistanceVector{0.9, 1, 1, 1, 1}},
		{targetCol: 0, attrID: 1, dist: DistanceVector{0.1, 1, 1, 1, 1}},
		{targetCol: 1, attrID: 0, dist: DistanceVector{0.3, 1, 1, 1, 1}},
	}
	aligns := e.alignColumns(pairs)
	if len(aligns) != 2 {
		t.Fatalf("got %d alignments, want 2", len(aligns))
	}
	if aligns[0].TargetColumn != 0 || aligns[0].AttrID != 1 {
		t.Fatalf("column 0 should align with attr 1: %+v", aligns[0])
	}
	if aligns[1].TargetColumn != 1 || aligns[1].AttrID != 0 {
		t.Fatalf("column 1 should align with attr 0: %+v", aligns[1])
	}
}

func TestEmbedForestLayout(t *testing.T) {
	trees, hashes := embedForestLayout(256)
	if trees*hashes != 32 {
		t.Fatalf("layout %dx%d must tile 32 values", trees, hashes)
	}
	trees, hashes = embedForestLayout(64)
	if trees*hashes != 8 {
		t.Fatalf("layout %dx%d must tile 8 values", trees, hashes)
	}
}

func TestUniformWeightingAblation(t *testing.T) {
	e := buildFigure1Engine(t)
	out, err := e.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 3, Uniform: true})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Ranked
	if len(res) == 0 {
		t.Fatal("uniform-weight query returned nothing")
	}
	// Related tables still beat noise even without CCDF weighting.
	if res[0].Name == "N1" || res[0].Name == "N2" {
		t.Fatalf("noise ranked first under uniform weighting: %v", res[0].Name)
	}
}

func TestPairDistancesBoundsProperty(t *testing.T) {
	e := buildFigure1Engine(t)
	n := e.NumAttributes()
	f := func(ai, bi uint8) bool {
		a := e.Profile(int(ai) % n)
		coded := e.pairDistances(&a, nil, int(bi)%n, [NumEvidence]bool{}, nil)
		for _, v := range e.grid.vector(&coded) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPairDistancesSelfIsClose(t *testing.T) {
	e := buildFigure1Engine(t)
	for id := 0; id < e.NumAttributes(); id++ {
		p := e.Profile(id)
		coded := e.pairDistances(&p, nil, id, [NumEvidence]bool{}, nil)
		d := e.grid.vector(&coded)
		if d[EvidenceName] > 1e-9 {
			t.Fatalf("self N distance %v for %s", d[EvidenceName], p.Name)
		}
		if !p.Numeric && p.TSize > 0 && d[EvidenceValue] > 1e-9 {
			t.Fatalf("self V distance %v for %s", d[EvidenceValue], p.Name)
		}
	}
}

func TestProfileSpaceBytesPositive(t *testing.T) {
	e := buildFigure1Engine(t)
	for id := 0; id < e.NumAttributes(); id++ {
		if p := e.Profile(id); p.spaceBytes() <= 0 {
			t.Fatal("profile space must be positive")
		}
	}
}
