package joins

import (
	"context"
	"testing"

	"d3l/internal/core"
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

// joinLake models the paper's Figure 1 join scenario: S1 and S2 are
// strongly related to the target; S3 is weakly related but joins with
// them on practice names and contributes the Hours column.
func joinLake(t testing.TB) *table.Lake {
	lake := table.NewLake()
	add := func(tb *table.Table) {
		t.Helper()
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	practices := []string{"Blackfriars", "Radclife Care", "Bolton Medical", "Oak Tree Surgery", "Elm Grove Practice", "The London Clinic"}
	cities := []string{"Salford", "Manchester", "Bolton", "Leeds", "Sheffield", "London"}
	postcodes := []string{"M3 6AF", "M26 2SP", "BL3 6PY", "LS1 4AP", "S1 2HE", "W1G 6BW"}
	hours := []string{"08:00-18:00", "07:00-20:00", "08:00-16:00", "09:00-17:00", "08:30-18:30", "07:30-19:00"}

	s1 := make([][]string, len(practices))
	s2 := make([][]string, len(practices))
	s3 := make([][]string, len(practices))
	for i := range practices {
		s1[i] = []string{practices[i], cities[i], postcodes[i], itoa(1000 + i*317)}
		s2[i] = []string{practices[i], cities[i], itoa(15000 + i*1111)}
		s3[i] = []string{practices[i], hours[i]}
	}
	add(mustTable(t, "S1", []string{"Practice Name", "City", "Postcode", "Patients"}, s1))
	add(mustTable(t, "S2", []string{"Practice", "City", "Payment"}, s2))
	add(mustTable(t, "S3", []string{"GP", "Opening hours"}, s3))
	// Unrelated noise that joins with nothing.
	add(mustTable(t, "N1", []string{"Species", "Habitat"}, [][]string{
		{"Kestrel", "farmland"}, {"Barn Owl", "grassland"}, {"Goshawk", "woodland"},
	}))
	return lake
}

func joinTarget(t testing.TB) *table.Table {
	return mustTable(t, "T", []string{"Practice", "City", "Postcode", "Hours"},
		[][]string{
			{"Radclife Care", "Manchester", "M26 2SP", "07:00-20:00"},
			{"Bolton Medical", "Bolton", "BL3 6PY", "08:00-16:00"},
		})
}

func buildEngine(t testing.TB) *core.Engine {
	opts := core.DefaultOptions()
	opts.MaxExtentSample = 128
	e, err := core.BuildEngine(joinLake(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildGraphFindsSAJoins(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	if g.Edges() == 0 {
		t.Fatal("join graph has no edges; expected S1-S2-S3 joins on practice names")
	}
	s1, _ := e.Lake().IDByName("S1")
	s2, _ := e.Lake().IDByName("S2")
	s3, _ := e.Lake().IDByName("S3")
	n1, _ := e.Lake().IDByName("N1")
	connected := func(a, b int) bool {
		for _, edge := range g.Neighbours(a) {
			if edge.To == b {
				return true
			}
		}
		return false
	}
	if !connected(s1, s2) && !connected(s1, s3) && !connected(s2, s3) {
		t.Fatal("none of the practice tables are connected")
	}
	for _, other := range []int{s1, s2, s3} {
		if connected(n1, other) {
			t.Fatal("noise table should not join practice tables")
		}
	}
	// Edges carry sane overlaps and symmetric adjacency.
	for _, edge := range g.Neighbours(s1) {
		if edge.Overlap <= 0 || edge.Overlap > 1 {
			t.Fatalf("edge overlap %v out of range", edge.Overlap)
		}
		back := false
		for _, rev := range g.Neighbours(edge.To) {
			if rev.To == s1 {
				back = true
			}
		}
		if !back {
			t.Fatal("adjacency not symmetric")
		}
	}
}

func TestFindJoinPathsAlgorithm3(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	topK := []int{res.Ranked[0].TableID, res.Ranked[1].TableID}
	paths := FindJoinPaths(g, topK, res.TargetProfiles, DefaultPathOptions())
	total := 0
	for _, ps := range paths {
		for _, p := range ps {
			total++
			if len(p) < 2 {
				t.Fatalf("path too short: %v", p)
			}
			if p[0] != topK[0] && p[0] != topK[1] {
				t.Fatalf("path does not start at a top-k table: %v", p)
			}
			// No cycles.
			seen := map[int]bool{}
			for _, tid := range p {
				if seen[tid] {
					t.Fatalf("cyclic path: %v", p)
				}
				seen[tid] = true
			}
			// Non-start nodes are outside top-k.
			for _, tid := range p[1:] {
				if tid == topK[0] || tid == topK[1] {
					t.Fatalf("path revisits top-k: %v", p)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no join paths found; S3 should be reachable")
	}
}

func TestJoinCoverageImproves(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	// k=2: S1 and S2 are the strongly related tables; S3 (hours) should
	// be reachable only through joins.
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	augs, err := Augment(e, g, res, DefaultPathOptions())
	if err != nil {
		t.Fatal(err)
	}
	anyImproved := false
	for _, a := range augs {
		if a.JoinCoverage < a.BaseCoverage {
			t.Fatalf("join coverage %v below base %v", a.JoinCoverage, a.BaseCoverage)
		}
		if a.JoinCoverage > a.BaseCoverage {
			anyImproved = true
		}
		if a.BaseCoverage < 0 || a.JoinCoverage > 1 {
			t.Fatal("coverage out of range")
		}
	}
	if !anyImproved {
		t.Fatal("joins should improve coverage (S3 contributes Hours)")
	}
}

func TestContributedTables(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	augs, err := Augment(e, g, res, DefaultPathOptions())
	if err != nil {
		t.Fatal(err)
	}
	contributed := ContributedTables(augs)
	s3, _ := e.Lake().IDByName("S3")
	found := false
	for _, tid := range contributed {
		if tid == s3 {
			found = true
		}
		for _, a := range augs {
			if a.Result.TableID == tid {
				t.Fatal("contributed table is already in top-k")
			}
		}
	}
	if !found {
		t.Fatalf("S3 (id %d) should be contributed via joins, got %v", s3, contributed)
	}
}

func TestAugmentValidation(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	if _, err := Augment(e, g, nil, DefaultPathOptions()); err == nil {
		t.Fatal("expected error for nil result")
	}
}

func TestCoverageEmptyTarget(t *testing.T) {
	e := buildEngine(t)
	if Coverage(e, nil, 0) != 0 || JoinCoverage(e, nil, 0, nil) != 0 {
		t.Fatal("empty target coverage should be 0")
	}
}

func TestPathOptionBounds(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	topK := []int{res.Ranked[0].TableID}
	paths := FindJoinPaths(g, topK, res.TargetProfiles, PathOptions{MaxDepth: 2, MaxPathsPerStart: 1})
	for _, ps := range paths {
		if len(ps) > 1 {
			t.Fatalf("MaxPathsPerStart violated: %d paths", len(ps))
		}
		for _, p := range ps {
			if len(p) > 2 {
				t.Fatalf("MaxDepth violated: %v", p)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
