package tus

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"testing"

	"d3l/internal/datagen"
	"d3l/internal/table"
)

func mustTable(t testing.TB, name string, cols []string, rows [][]string) *table.Table {
	t.Helper()
	tb, err := table.New(name, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func cleanLake(t testing.TB) *table.Lake {
	lake := table.NewLake()
	add := func(tb *table.Table) {
		t.Helper()
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	add(mustTable(t, "gps",
		[]string{"Practice", "City"},
		[][]string{
			{"Blackfriars", "Salford"},
			{"Radclife Care", "Manchester"},
			{"Bolton Medical", "Bolton"},
			{"Oak Tree Surgery", "Leeds"},
		}))
	add(mustTable(t, "gps_copy",
		[]string{"Provider", "Town"},
		[][]string{
			{"Blackfriars", "Salford"},
			{"Radclife Care", "Manchester"},
			{"Bolton Medical", "Bolton"},
			{"Oak Tree Surgery", "Leeds"},
		}))
	add(mustTable(t, "gps_dirty", // same entities, inconsistent representation
		[]string{"Provider", "Town"},
		[][]string{
			{"BLACKFRIARS GP PRACTICE", "City of Salford"},
			{"Radclife Care Ctr.", "Gtr. Manchester"},
			{"Bolton Medical Centre", "Bolton, UK"},
			{"Oak Tree Surgery & Clinic", "Leeds West"},
		}))
	add(mustTable(t, "birds",
		[]string{"Species", "Habitat"},
		[][]string{
			{"Kestrel", "farmland"},
			{"Barn Owl", "grassland"},
			{"Goshawk", "woodland"},
		}))
	return lake
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, DefaultOptions()); err == nil {
		t.Fatal("expected error for nil lake")
	}
	bad := DefaultOptions()
	bad.Threshold = 0
	if _, err := Build(table.NewLake(), bad); err == nil {
		t.Fatal("expected error for bad threshold")
	}
}

func TestTUSFindsExactDuplicates(t *testing.T) {
	s, err := Build(cleanLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := mustTable(t, "T", []string{"GP", "Location"},
		[][]string{
			{"Blackfriars", "Salford"},
			{"Radclife Care", "Manchester"},
			{"Bolton Medical", "Bolton"},
		})
	res, err := s.TopK(target, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// The two clean copies share exact values and must outrank birds.
	for _, r := range res {
		if r.Name == "birds" {
			t.Fatalf("birds ranked in top-2: %+v", res)
		}
		if r.Score <= 0 || r.Score > 1 {
			t.Fatalf("score %v out of range", r.Score)
		}
	}
	if res[0].Name != "gps" && res[0].Name != "gps_copy" {
		t.Fatalf("top result %q, want a clean GP table", res[0].Name)
	}
}

func TestTUSWeakOnDirtyRepresentations(t *testing.T) {
	// The D3L paper's central claim about TUS: whole-value hashing fails
	// when the same entities are inconsistently represented.
	s, err := Build(cleanLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := mustTable(t, "T", []string{"GP", "Location"},
		[][]string{
			{"Blackfriars", "Salford"},
			{"Radclife Care", "Manchester"},
			{"Bolton Medical", "Bolton"},
		})
	res, err := s.TopK(target, 4)
	if err != nil {
		t.Fatal(err)
	}
	var clean, dirty float64
	for _, r := range res {
		switch r.Name {
		case "gps":
			clean = r.Score
		case "gps_dirty":
			dirty = r.Score
		}
	}
	if clean == 0 {
		t.Fatal("clean table not retrieved")
	}
	if dirty >= clean {
		t.Fatalf("dirty representation score %v should be below clean %v", dirty, clean)
	}
}

func TestTUSIgnoresNumericColumns(t *testing.T) {
	lake := table.NewLake()
	if _, err := lake.Add(mustTable(t, "nums", []string{"a", "b"},
		[][]string{{"1", "2"}, {"3", "4"}})); err != nil {
		t.Fatal(err)
	}
	s, err := Build(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.profiles) != 0 {
		t.Fatalf("TUS indexed %d numeric attributes, want 0", len(s.profiles))
	}
}

func TestTUSAlignments(t *testing.T) {
	s, err := Build(cleanLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := mustTable(t, "T", []string{"GP", "Location"},
		[][]string{
			{"Blackfriars", "Salford"},
			{"Radclife Care", "Manchester"},
		})
	res, err := s.TopK(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res[0].Alignments) == 0 {
		t.Fatal("top result should carry alignments")
	}
	for col := range res[0].Alignments {
		if col < 0 || col >= target.Arity() {
			t.Fatalf("alignment target column %d out of range", col)
		}
	}
}

func TestTUSValidationTopK(t *testing.T) {
	s, err := Build(cleanLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(nil, 5); err == nil {
		t.Fatal("expected error for nil target")
	}
	if _, err := s.TopK(mustTable(t, "T", []string{"a"}, nil), 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestTUSSpace(t *testing.T) {
	s, err := Build(cleanLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.IndexSpaceBytes() <= 0 {
		t.Fatal("index space should be positive")
	}
}

func TestKBClasses(t *testing.T) {
	kb := BuiltinKB()
	if len(kb.(*syntheticKB).classes) == 0 {
		t.Fatal("builtin KB is empty")
	}
	if cl := kb.Classes("doctor"); len(cl) == 0 {
		t.Fatal("'doctor' should map to a class")
	}
	if cl := kb.Classes("doctors"); len(cl) == 0 {
		t.Fatal("plural probe should find 'doctor'")
	}
	if cl := kb.Classes("2019"); len(cl) != 1 || cl[0] != "wordnet_year" {
		t.Fatalf("year classification wrong: %v", cl)
	}
	if cl := kb.Classes("12345"); len(cl) != 1 || cl[0] != "wordnet_number" {
		t.Fatalf("number classification wrong: %v", cl)
	}
	if cl := kb.Classes("M3"); len(cl) != 1 || cl[0] != "wordnet_code" {
		t.Fatalf("code classification wrong: %v", cl)
	}
	if cl := kb.Classes("zzxqwv"); cl != nil {
		t.Fatalf("unknown token should map to nil, got %v", cl)
	}
	if cl := kb.Classes(""); cl != nil {
		t.Fatal("empty token should map to nil")
	}
	// Shared class binds synonyms.
	d := kb.Classes("doctor")
	g := kb.Classes("gp")
	if d[0] != g[0] {
		t.Fatal("doctor and gp should share a class")
	}
}

// TestTopKIsDeterministic: TopK is a function of the lake and the
// target. On the small experiment scale's synthetic lake, every seventh
// table's top 20, rendered with exact score bits and alignments, hashes
// to one value over 30 repetitions: nothing in the answer follows Go's
// randomised map order.
func TestTopKIsDeterministic(t *testing.T) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.BaseTables, cfg.DerivedTables = 8, 120
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.CandidateBudget = 96
	s, err := Build(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	answers := func() uint64 {
		h := fnv.New64a()
		for i, target := range lake.Tables() {
			if i%7 != 0 {
				continue
			}
			ranked, err := s.TopK(target, 20)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ranked {
				fmt.Fprintf(h, "%s %d %x;", target.Name, r.TableID, math.Float64bits(r.Score))
				cols := slices.Sorted(maps.Keys(r.Alignments))
				for _, c := range cols {
					fmt.Fprintf(h, "%d:%v ", c, r.Alignments[c])
				}
			}
		}
		return h.Sum64()
	}
	want := answers()
	for run := 1; run < 30; run++ {
		if got := answers(); got != want {
			t.Fatalf("run %d: TopK answers hash to %x, run 0 to %x", run, got, want)
		}
	}
}
