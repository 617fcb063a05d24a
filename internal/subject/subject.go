// Package subject identifies the subject attribute of a table: the
// column naming the entities the dataset is about (Venetis et al.,
// PVLDB 2011; used by D3L's Section III-C numeric guards and the
// Section IV SA-join graph). As in the paper we assume each dataset has
// exactly one subject attribute, that it is non-numeric, and that the
// classifier "favours leftmost non-numeric attributes with fewer nulls
// and many distinct values". The classifier is a logistic model over
// exactly those features, trainable on labelled tables (the paper
// 10-fold cross-validated on 350 labelled data.gov.uk tables; our
// generators emit labelled tables instead — DESIGN.md §4.4).
package subject

import (
	"errors"
	"fmt"
	"strings"

	"d3l/internal/mlearn"
	"d3l/internal/table"
)

// FeatureCount is the dimensionality of the per-column feature vector.
const FeatureCount = 5

// Features extracts the classifier features of column colIdx in t:
//
//	0: leftness     1 − position/arity (leftmost columns score high)
//	1: non-null     1 − null fraction
//	2: distinctness distinct fraction of non-null values
//	3: textiness    1 for Text columns, 0 for Numeric
//	4: multi-word   fraction of values with at least two words
func Features(t *table.Table, colIdx int) []float64 {
	c := t.Columns[colIdx]
	leftness := 1.0
	if t.Arity() > 1 {
		leftness = 1 - float64(colIdx)/float64(t.Arity()-1)
	}
	textiness := 0.0
	if c.Type == table.Text {
		textiness = 1
	}
	// One pass over the extent's non-null values yields the three
	// value-dependent features; their definitions are Column.NullFraction
	// and Column.DistinctFraction, which would each take the pass again
	// (non-null is spelled 1 − (1 − x) because that is what 1 −
	// NullFraction computes, to the bit).
	nn := c.NonNull()
	nonNull, distinct, multi := 0.0, 0.0, 0.0
	if len(c.Values) > 0 {
		nonNull = 1 - (1 - float64(len(nn))/float64(len(c.Values)))
	}
	if len(nn) > 0 {
		set := make(map[string]struct{}, len(nn))
		cnt := 0
		for _, v := range nn {
			set[v] = struct{}{}
			if strings.IndexByte(v, ' ') >= 0 {
				cnt++
			}
		}
		distinct = float64(len(set)) / float64(len(nn))
		multi = float64(cnt) / float64(len(nn))
	}
	return []float64{leftness, nonNull, distinct, textiness, multi}
}

// Classifier scores columns and picks the subject attribute.
type Classifier struct {
	model *mlearn.LogisticModel
}

// Default returns a classifier with pre-trained coefficients. The
// values come from TrainOnLabelled over generator-labelled tables (see
// TestDefaultMatchesTrained); they encode the paper's stated intuition:
// leftmost, non-null, distinct, textual columns win.
func Default() *Classifier {
	return &Classifier{model: &mlearn.LogisticModel{
		Weights: []float64{1.6, 1.2, 3.2, 2.6, 0.6},
		Bias:    -5.2,
	}}
}

// Model exposes the underlying logistic model so engine snapshots can
// persist the classifier's coefficients; reconstruct with FromModel.
func (c *Classifier) Model() *mlearn.LogisticModel { return c.model }

// FromModel wraps a trained logistic model.
func FromModel(m *mlearn.LogisticModel) (*Classifier, error) {
	if m == nil || len(m.Weights) != FeatureCount {
		return nil, fmt.Errorf("subject: model must have %d weights", FeatureCount)
	}
	return &Classifier{model: m}, nil
}

// Score returns the subject probability of column colIdx.
func (c *Classifier) Score(t *table.Table, colIdx int) float64 {
	return c.model.Predict(Features(t, colIdx))
}

// SubjectIndex returns the index of the most probable subject attribute
// among non-numeric columns, or -1 when the table has no text column
// (the paper assumes subject attributes have non-numeric values).
func (c *Classifier) SubjectIndex(t *table.Table) int {
	best, bestScore := -1, -1.0
	for i, col := range t.Columns {
		if col.Type != table.Text {
			continue
		}
		if s := c.Score(t, i); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// LabelledTable pairs a table with its known subject column for
// training.
type LabelledTable struct {
	Table   *table.Table
	Subject int
}

// TrainOnLabelled fits a classifier on labelled tables: every column
// becomes one example, labelled 1 iff it is the subject.
func TrainOnLabelled(data []LabelledTable, opts mlearn.Options) (*Classifier, []mlearn.Example, error) {
	if len(data) == 0 {
		return nil, nil, errors.New("subject: no labelled tables")
	}
	var examples []mlearn.Example
	for _, lt := range data {
		if lt.Subject < 0 || lt.Subject >= lt.Table.Arity() {
			return nil, nil, fmt.Errorf("subject: table %q labels column %d of %d", lt.Table.Name, lt.Subject, lt.Table.Arity())
		}
		for i := range lt.Table.Columns {
			label := 0.0
			if i == lt.Subject {
				label = 1
			}
			examples = append(examples, mlearn.Example{Features: Features(lt.Table, i), Label: label})
		}
	}
	m, err := mlearn.TrainLogistic(examples, opts)
	if err != nil {
		return nil, nil, err
	}
	return &Classifier{model: m}, examples, nil
}

// TableAccuracy reports the fraction of labelled tables whose subject
// SubjectIndex recovers exactly (the 89% figure in the paper's footnote
// is this measure over their 350 labelled tables).
func TableAccuracy(c *Classifier, data []LabelledTable) float64 {
	if len(data) == 0 {
		return 0
	}
	ok := 0
	for _, lt := range data {
		if c.SubjectIndex(lt.Table) == lt.Subject {
			ok++
		}
	}
	return float64(ok) / float64(len(data))
}
