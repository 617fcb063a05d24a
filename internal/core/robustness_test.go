package core

import (
	"context"
	"strings"
	"testing"

	"d3l/internal/table"
)

// Robustness tests: data lakes are dirty by definition, so the engine
// must index and query pathological tables without errors and without
// nonsense distances.

func pathologicalLake(t *testing.T) *table.Lake {
	t.Helper()
	lake := table.NewLake()
	add := func(name string, cols []string, rows [][]string) {
		t.Helper()
		tb, err := table.New(name, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	add("empty_extent", []string{"a", "b"}, nil)
	add("all_null", []string{"x", "y"}, [][]string{{"", ""}, {"-", "null"}})
	add("single_col", []string{"only"}, [][]string{{"one"}, {"two"}})
	add("unicode", []string{"名前", "städte"}, [][]string{
		{"日本語テキスト", "Zürich"},
		{"ひらがな", "Köln"},
	})
	add("huge_values", []string{"blob"}, [][]string{
		{strings.Repeat("lorem ipsum dolor sit amet, ", 200)},
		{strings.Repeat("consectetur adipiscing elit, ", 200)},
	})
	add("punct_names", []string{"!!!", "   "}, [][]string{{"v1", "v2"}})
	add("numeric_empty", []string{"n"}, [][]string{{""}, {""}})
	add("mixed_junk", []string{"m"}, [][]string{
		{"123"}, {"abc"}, {"!@#$%"}, {""}, {"12.5%"}, {"£9,999.99"},
	})
	return lake
}

func TestEngineSurvivesPathologicalLake(t *testing.T) {
	lake := pathologicalLake(t)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e.NumAttributes() == 0 {
		t.Fatal("nothing indexed")
	}
	target, err := table.New("q", []string{"only", "名前"},
		[][]string{{"one", "日本語テキスト"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranked {
		if r.Distance < 0 || r.Distance > 1 {
			t.Fatalf("distance %v out of range for %s", r.Distance, r.Name)
		}
		for _, v := range r.Vector {
			if v < 0 || v > 1 {
				t.Fatalf("vector component %v out of range for %s", v, r.Name)
			}
		}
	}
}

func TestQueryPathologicalTargets(t *testing.T) {
	e := buildFigure1Engine(t)
	cases := []struct {
		name string
		cols []string
		rows [][]string
	}{
		{"empty extent", []string{"a"}, nil},
		{"all nulls", []string{"a"}, [][]string{{""}, {"-"}}},
		{"punct name", []string{"###"}, [][]string{{"x"}}},
		{"numeric only", []string{"n"}, [][]string{{"1"}, {"2"}, {"3"}}},
	}
	for _, c := range cases {
		target, err := table.New("t", c.cols, c.rows)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 3}); err != nil {
			t.Fatalf("%s: search failed: %v", c.name, err)
		}
	}
}

func TestExplainOnPathologicalLake(t *testing.T) {
	lake := pathologicalLake(t)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := table.New("q", []string{"only"}, [][]string{{"one"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"empty_extent", "all_null", "unicode"} {
		if _, err := e.Explain(target, name); err != nil {
			t.Fatalf("Explain(%s): %v", name, err)
		}
	}
}

func TestEmptyLakeQuery(t *testing.T) {
	e, err := BuildEngine(table.NewLake(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := table.New("t", []string{"a"}, [][]string{{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 0 {
		t.Fatal("empty lake should return no results")
	}
}

func TestZeroSampleCapProfilesFullExtent(t *testing.T) {
	opts := testOptions()
	opts.MaxExtentSample = 0
	e, err := BuildEngine(figure1Lake(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topK(e, figure1Target(t), 3); err != nil {
		t.Fatal(err)
	}
}
