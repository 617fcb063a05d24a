package subject

import (
	"math"
	"testing"

	"d3l/internal/mlearn"
	"d3l/internal/table"
)

func mustTable(t *testing.T, name string, cols []string, rows [][]string) *table.Table {
	t.Helper()
	tb, err := table.New(name, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// figure1Tables reproduces the Figure 1 example; the paper states the
// subject attributes are Practice Name (S1), Practice (S2), GP (S3) and
// Practice (T) — all leftmost text columns.
func figure1Tables(t *testing.T) []LabelledTable {
	s1 := mustTable(t, "S1",
		[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
		[][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
			{"The London Clinic", "20 Devonshire Pl", "London", "W1G 6BW", "4410"},
		})
	s2 := mustTable(t, "S2",
		[]string{"Practice", "City", "Postcode", "Payment"},
		[][]string{
			{"The London Clinic", "London", "W1G 6BW", "73648"},
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
		})
	s3 := mustTable(t, "S3",
		[]string{"GP", "Location", "Opening hours"},
		[][]string{
			{"Blackfriars", "Salford", "08:00-18:00"},
			{"Radclife Care", "-", "07:00-20:00"},
			{"Bolton Medical", "Bolton", "08:00-16:00"},
		})
	return []LabelledTable{{s1, 0}, {s2, 0}, {s3, 0}}
}

func TestDefaultFindsFigure1Subjects(t *testing.T) {
	c := Default()
	for _, lt := range figure1Tables(t) {
		if got := c.SubjectIndex(lt.Table); got != lt.Subject {
			t.Errorf("table %s: subject %d, want %d", lt.Table.Name, got, lt.Subject)
		}
	}
}

func TestSubjectSkipsNumericColumns(t *testing.T) {
	tb := mustTable(t, "nums",
		[]string{"id", "count", "name"},
		[][]string{{"1", "10", "alpha"}, {"2", "20", "beta"}})
	c := Default()
	got := c.SubjectIndex(tb)
	if got != 2 {
		t.Fatalf("subject %d, want 2 (only text column)", got)
	}
}

func TestSubjectAllNumericReturnsMinusOne(t *testing.T) {
	tb := mustTable(t, "allnums",
		[]string{"a", "b"},
		[][]string{{"1", "2"}, {"3", "4"}})
	if got := Default().SubjectIndex(tb); got != -1 {
		t.Fatalf("subject %d, want -1", got)
	}
}

func TestSubjectPrefersDistinctOverRepeated(t *testing.T) {
	// Column 0 is text but repetitive; column 1 is text and distinct —
	// but column 0 is leftmost. Make column 0 very repetitive so
	// distinctness dominates.
	tb := mustTable(t, "rep",
		[]string{"category", "school"},
		[][]string{
			{"primary", "Oak Park Academy"},
			{"primary", "St Mary College"},
			{"primary", "River View School"},
			{"primary", "Hill Top Academy"},
		})
	if got := Default().SubjectIndex(tb); got != 1 {
		t.Fatalf("subject %d, want 1 (distinct names)", got)
	}
}

func TestFeaturesShapeAndRanges(t *testing.T) {
	tb := figure1Tables(t)[0].Table
	for i := range tb.Columns {
		f := Features(tb, i)
		if len(f) != FeatureCount {
			t.Fatalf("feature count %d, want %d", len(f), FeatureCount)
		}
		for j, v := range f {
			if v < 0 || v > 1 {
				t.Fatalf("feature %d of column %d out of [0,1]: %v", j, i, v)
			}
		}
	}
	// Leftness decreases with position.
	if Features(tb, 0)[0] <= Features(tb, 4)[0] {
		t.Fatal("leftness should decrease with column index")
	}
}

func TestTrainOnLabelledRecoversSubjects(t *testing.T) {
	data := figure1Tables(t)
	// Add tables where the subject is NOT leftmost to give the learner
	// signal beyond position.
	data = append(data,
		LabelledTable{mustTable(t, "S4",
			[]string{"rank", "Business Name", "Sector"},
			[][]string{
				{"1", "Acme Trading Ltd", "retail"},
				{"2", "Nova Systems", "tech"},
				{"3", "Harbor Foods", "food"},
			}), 1},
		LabelledTable{mustTable(t, "S5",
			[]string{"year", "Station", "Passengers"},
			[][]string{
				{"2019", "Piccadilly Central", "110000"},
				{"2019", "Victoria North", "98000"},
				{"2020", "Oxford Road", "45000"},
			}), 1},
	)
	c, examples, err := TrainOnLabelled(data, mlearn.Options{Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples generated")
	}
	if acc := TableAccuracy(c, data); acc < 0.8 {
		t.Fatalf("trained table accuracy %v, want >= 0.8", acc)
	}
}

func TestTrainOnLabelledValidation(t *testing.T) {
	if _, _, err := TrainOnLabelled(nil, mlearn.Options{}); err == nil {
		t.Fatal("expected error for empty data")
	}
	tb := mustTable(t, "x", []string{"a"}, [][]string{{"v"}})
	if _, _, err := TrainOnLabelled([]LabelledTable{{tb, 5}}, mlearn.Options{}); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

func TestFromModelValidation(t *testing.T) {
	if _, err := FromModel(nil); err == nil {
		t.Fatal("expected error for nil model")
	}
	if _, err := FromModel(&mlearn.LogisticModel{Weights: []float64{1}}); err == nil {
		t.Fatal("expected error for wrong dimensionality")
	}
	m := &mlearn.LogisticModel{Weights: make([]float64, FeatureCount)}
	if _, err := FromModel(m); err != nil {
		t.Fatal(err)
	}
}

func TestTableAccuracyEmpty(t *testing.T) {
	if TableAccuracy(Default(), nil) != 0 {
		t.Fatal("accuracy over no tables should be 0")
	}
}

// TestFeaturesEqualTheThreeCallForm: Features reads a column's non-null
// values once; the null and distinct fractions it derives from them are,
// to the bit, what Column.NullFraction and Column.DistinctFraction
// return, and the multi-word fraction is the rune-by-rune count of
// values holding a space — on columns with nulls, blanks, repeats,
// multi-byte values and nothing at all.
func TestFeaturesEqualTheThreeCallForm(t *testing.T) {
	tb := mustTable(t, "mixed",
		[]string{"names", "sparse", "empty", "num", "wide"},
		[][]string{
			{"Dr E Cullen", "", "", "1", "café du nord"},
			{"Blackfriars", "null", "-", "2", "日本 語"},
			{"Dr E Cullen", "x y", " ", "3", "single"},
			{"  padded  ", "NULL", "", "", "a b"},
			{"The London Clinic", "x y", "", "5", "-"},
		})
	tables := append([]*table.Table{tb, mustTable(t, "norows", []string{"a", "b"}, nil)}, func() []*table.Table {
		var out []*table.Table
		for _, lt := range figure1Tables(t) {
			out = append(out, lt.Table)
		}
		return out
	}()...)
	for _, tb := range tables {
		for i, c := range tb.Columns {
			multi := 0.0
			if nn := c.NonNull(); len(nn) > 0 {
				cnt := 0
				for _, v := range nn {
					for _, r := range v {
						if r == ' ' {
							cnt++
							break
						}
					}
				}
				multi = float64(cnt) / float64(len(nn))
			}
			got := Features(tb, i)
			want := []float64{got[0], 1 - c.NullFraction(), c.DistinctFraction(), got[3], multi}
			for f := range want {
				if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
					t.Errorf("%s.%s feature %d = %v, three-call form %v", tb.Name, c.Name, f, got[f], want[f])
				}
			}
		}
	}
}
