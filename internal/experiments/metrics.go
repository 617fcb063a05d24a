// Package experiments is the evaluation harness: it rebuilds every
// table and figure of the paper's Section V against the generated lakes
// (see DESIGN.md §3 for the experiment index). Each RunExpN function
// returns a Report whose rows mirror the corresponding figure's series.
package experiments

import (
	"maps"
	"slices"

	"d3l/internal/datagen"
)

// PRPoint is one (k, precision, recall) measurement.
type PRPoint struct {
	K         int
	Precision float64
	Recall    float64
}

// precisionRecallAt computes P/R of a returned table-name list against
// the ground truth for one target, per the paper's TP/FP/FN definitions
// (a returned table is a TP iff it is related to the target).
func precisionRecallAt(gt *datagen.GroundTruth, target string, returned []string) (p, r float64) {
	related := make(map[string]bool)
	for _, name := range gt.RelatedTo(target) {
		related[name] = true
	}
	tp := 0
	for _, name := range returned {
		if related[name] {
			tp++
		}
	}
	if len(returned) > 0 {
		p = float64(tp) / float64(len(returned))
	}
	if len(related) > 0 {
		r = float64(tp) / float64(len(related))
	}
	return p, r
}

// meanPR averages P/R over targets for one system at one k.
func meanPR(gt *datagen.GroundTruth, results map[string][]string) (p, r float64) {
	if len(results) == 0 {
		return 0, 0
	}
	// Summed in target-name order, so the means do not follow map order
	// in their last bits.
	var sp, sr float64
	for _, target := range slices.Sorted(maps.Keys(results)) {
		tp, tr := precisionRecallAt(gt, target, results[target])
		sp += tp
		sr += tr
	}
	n := float64(len(results))
	return sp / n, sr / n
}

// joinedAttrPrecision scores alignments (target column -> candidate
// columns, per candidate table) against the ground truth over a set of
// tables (a join path result): per target column, the union of aligned
// columns over all tables counts as one true positive if any element is
// genuinely related to it (Section V-E's definition).
func joinedAttrPrecision(gt *datagen.GroundTruth, target string, perTable map[string]map[int][]int) (tp, fp int) {
	byCol := make(map[int]bool) // target col -> any hit
	seenCol := make(map[int]bool)
	for candidate, aligns := range perTable {
		for tCol, cCols := range aligns {
			seenCol[tCol] = true
			for _, cCol := range cCols {
				if gt.AttrsRelated(target, tCol, candidate, cCol) {
					byCol[tCol] = true
					break
				}
			}
		}
	}
	for col := range seenCol {
		if byCol[col] {
			tp++
		} else {
			fp++
		}
	}
	return tp, fp
}

// ratio guards divide-by-zero.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
