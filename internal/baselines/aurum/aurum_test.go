package aurum

import (
	"testing"

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

func fixtureLake(t testing.TB) *table.Lake {
	lake := table.NewLake()
	add := func(tb *table.Table) {
		t.Helper()
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	practices := [][]string{
		{"Blackfriars", "Salford", "M3 6AF"},
		{"Radclife Care", "Manchester", "M26 2SP"},
		{"Bolton Medical", "Bolton", "BL3 6PY"},
		{"Oak Tree Surgery", "Leeds", "LS1 4AP"},
		{"Elm Grove Practice", "Sheffield", "S1 2HE"},
	}
	add(mustTable(t, "gps", []string{"Practice", "City", "Postcode"}, practices))
	// Joinable detail table: practice name is a key here too.
	add(mustTable(t, "funding", []string{"Practice", "Payment"},
		[][]string{
			{"Blackfriars", "15530"},
			{"Radclife Care", "20081"},
			{"Bolton Medical", "17264"},
			{"Oak Tree Surgery", "19990"},
			{"Elm Grove Practice", "12000"},
		}))
	add(mustTable(t, "birds", []string{"Species", "Habitat"},
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
	bad.MinHashSize = 0
	if _, err := Build(table.NewLake(), bad); err == nil {
		t.Fatal("expected error for bad MinHashSize")
	}
}

func TestEKGHasContentAndPKFKEdges(t *testing.T) {
	s, err := Build(fixtureLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.profiles) != 3+2+2 {
		t.Fatalf("EKG has %d nodes, want 7", len(s.profiles))
	}
	edges := 0
	for _, es := range s.adj {
		edges += len(es)
	}
	if edges == 0 {
		t.Fatal("EKG has no edges; gps.Practice and funding.Practice share all values")
	}
	gpsID, _ := s.lake.IDByName("gps")
	fundingID, _ := s.lake.IDByName("funding")
	joins := s.JoinNeighbours(gpsID)
	found := false
	for _, tid := range joins {
		if tid == fundingID {
			found = true
		}
	}
	if !found {
		t.Fatalf("PK/FK neighbours of gps = %v, want funding (%d)", joins, fundingID)
	}
}

func TestAurumTopK(t *testing.T) {
	s, err := Build(fixtureLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := mustTable(t, "T", []string{"Practice", "City"},
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
	if res[0].Name != "gps" {
		t.Fatalf("top result %q, want gps", res[0].Name)
	}
	for _, r := range res {
		if r.Name == "birds" {
			t.Fatal("birds should not rank in top-2")
		}
		if r.Score < 0 || r.Score > float64(target.Arity()) {
			t.Fatalf("score %v out of [0, arity]", r.Score)
		}
	}
	// Scores descend.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestGraphExpansionReachesJoinedTables(t *testing.T) {
	// funding shares only the Practice column with the target; the graph
	// hop from gps should still surface it.
	s, err := Build(fixtureLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := mustTable(t, "T", []string{"Practice", "City"},
		[][]string{
			{"Blackfriars", "Salford"},
			{"Radclife Care", "Manchester"},
			{"Bolton Medical", "Bolton"},
			{"Oak Tree Surgery", "Leeds"},
			{"Elm Grove Practice", "Sheffield"},
		})
	res, err := s.TopK(target, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Name == "funding" {
			found = true
		}
	}
	if !found {
		t.Fatalf("funding not in top-3: %+v", res)
	}
}

func TestAurumValidationTopK(t *testing.T) {
	s, err := Build(fixtureLake(t), DefaultOptions())
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

func TestAurumSpaceAndAlignments(t *testing.T) {
	s, err := Build(fixtureLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.IndexSpaceBytes() <= 0 {
		t.Fatal("index space should be positive")
	}
	target := mustTable(t, "T", []string{"Practice"},
		[][]string{{"Blackfriars"}, {"Radclife Care"}})
	res, err := s.TopK(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res[0].Alignments) == 0 {
		t.Fatal("top result should carry alignments")
	}
}

func TestJoinNeighboursNoEdges(t *testing.T) {
	s, err := Build(fixtureLake(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	birdsID, _ := s.lake.IDByName("birds")
	if n := s.JoinNeighbours(birdsID); len(n) != 0 {
		t.Fatalf("birds should have no join neighbours, got %v", n)
	}
}
