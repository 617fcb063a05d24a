package table

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func figure1S1() *Table {
	t, err := New("S1",
		[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
		[][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
		})
	if err != nil {
		panic(err)
	}
	return t
}

func TestNewTableShape(t *testing.T) {
	s1 := figure1S1()
	if s1.Arity() != 5 || s1.Rows() != 2 {
		t.Fatalf("arity %d rows %d", s1.Arity(), s1.Rows())
	}
	if got := s1.ColumnNames(); !reflect.DeepEqual(got, []string{"Practice Name", "Address", "City", "Postcode", "Patients"}) {
		t.Fatalf("column names %v", got)
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := New("", []string{"a"}, nil); err == nil {
		t.Fatal("expected error for empty name")
	}
	if _, err := New("t", nil, nil); err == nil {
		t.Fatal("expected error for no columns")
	}
	if _, err := New("t", []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("expected error for too-long row")
	}
}

// column returns tb's column with the given name, or nil.
func column(tb *Table, name string) *Column {
	for _, c := range tb.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestShortRowsPadded(t *testing.T) {
	tb, err := New("t", []string{"a", "b"}, [][]string{{"1"}})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Columns[1].Values[0] != "" {
		t.Fatal("short row should be padded with empty cell")
	}
}

func TestTypeInference(t *testing.T) {
	s1 := figure1S1()
	if column(s1, "Patients").Type != Numeric {
		t.Fatal("Patients should be numeric")
	}
	if column(s1, "Postcode").Type != Text {
		t.Fatal("Postcode should be text")
	}
	if column(s1, "Practice Name").Type != Text {
		t.Fatal("Practice Name should be text")
	}
}

func TestTypeInferenceCurrencyAndPercent(t *testing.T) {
	c := NewColumn("Payment", []string{"£73,648", "$12.50", "99%", "1,202"})
	if c.Type != Numeric {
		t.Fatal("currency/percent column should be numeric")
	}
	if len(c.NumericExtent()) != 4 {
		t.Fatalf("parsed %d values, want 4", len(c.NumericExtent()))
	}
}

func TestTypeInferenceMixedStaysText(t *testing.T) {
	c := NewColumn("mixed", []string{"12", "abc", "def", "ghi", "jkl"})
	if c.Type != Text {
		t.Fatal("mostly-text column should be text")
	}
	if c.NumericExtent() != nil {
		t.Fatal("text column must not cache numeric extent")
	}
}

func TestTypeInferenceNullsIgnored(t *testing.T) {
	c := NewColumn("n", []string{"", "-", "null", "N/A", "5", "6"})
	if c.Type != Numeric {
		t.Fatal("nulls should not block numeric inference")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s1 := figure1S1()
	var buf bytes.Buffer
	if err := s1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "S1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Arity() != s1.Arity() || got.Rows() != s1.Rows() {
		t.Fatal("round trip changed shape")
	}
	for i, c := range got.Columns {
		if !reflect.DeepEqual(c.Values, s1.Columns[i].Values) {
			t.Fatalf("column %d values differ", i)
		}
	}
}

func TestReadCSVRagged(t *testing.T) {
	in := "a,b,c\n1,2\n4,5,6,7\n"
	tb, err := ReadCSV(strings.NewReader(in), "ragged")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 || column(tb, "c").Values[0] != "" || column(tb, "c").Values[1] != "6" {
		t.Fatalf("ragged handling wrong: %+v", column(tb, "c").Values)
	}
}

func TestLake(t *testing.T) {
	l := NewLake()
	id, err := l.Add(figure1S1())
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || l.Len() != 1 {
		t.Fatal("lake bookkeeping wrong")
	}
	if _, err := l.Add(figure1S1()); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if got, ok := l.IDByName("S1"); !ok || got != 0 {
		t.Fatal("IDByName wrong")
	}
	if l.ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown")
	}
	if l.DataBytes() <= 0 {
		t.Fatal("DataBytes should be positive")
	}
}

func TestLakeDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := NewLake()
	if _, err := l.Add(figure1S1()); err != nil {
		t.Fatal(err)
	}
	t2, err := New("T2", []string{"x"}, [][]string{{"1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Add(t2); err != nil {
		t.Fatal(err)
	}
	if err := SaveLakeDir(l, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLakeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d tables, want 2", got.Len())
	}
	if got.ByName("S1") == nil || got.ByName("T2") == nil {
		t.Fatal("names lost in round trip")
	}
	// Non-CSV files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadLakeDir(dir)
	if err != nil || got.Len() != 2 {
		t.Fatal("stray files should be ignored")
	}
}

func TestTypeString(t *testing.T) {
	if Text.String() != "text" || Numeric.String() != "numeric" {
		t.Fatal("Type.String wrong")
	}
	if Type(9).String() == "" {
		t.Fatal("unknown type should still print")
	}
}
