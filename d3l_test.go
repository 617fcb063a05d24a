package d3l_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"d3l"
)

func mustTable(t testing.TB, name string, cols []string, rows [][]string) *d3l.Table {
	t.Helper()
	tb, err := d3l.NewTable(name, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func figure1Lake(t testing.TB) *d3l.Lake {
	t.Helper()
	lake := d3l.NewLake()
	tables := []*d3l.Table{
		mustTable(t, "S1",
			[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
			[][]string{
				{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
				{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
				{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2210"},
			}),
		mustTable(t, "S2",
			[]string{"Practice", "City", "Postcode", "Payment"},
			[][]string{
				{"The London Clinic", "London", "W1G 6BW", "73648"},
				{"Blackfriars", "Salford", "M3 6AF", "15530"},
				{"Radclife Care", "Manchester", "M26 2SP", "20081"},
			}),
		mustTable(t, "S3",
			[]string{"GP", "Location", "Opening hours"},
			[][]string{
				{"Blackfriars", "Salford", "08:00-18:00"},
				{"Radclife Care", "-", "07:00-20:00"},
			}),
	}
	for _, tb := range tables {
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

func figure1Target(t testing.TB) *d3l.Table {
	return mustTable(t, "T",
		[]string{"Practice", "Street", "City", "Postcode", "Hours"},
		[][]string{
			{"Radclife", "69 Church St", "Manchester", "M26 2SP", "07:00-20:00"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "08:00-16:00"},
		})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if engine.NumAttributes() != 12 {
		t.Fatalf("indexed %d attributes, want 12", engine.NumAttributes())
	}
	ans, err := engine.Query(context.Background(), figure1Target(t), d3l.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	results := ans.Results
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Distance < results[i-1].Distance {
			t.Fatal("results not sorted")
		}
	}
	name, err := engine.TableName(results[0].TableID)
	if err != nil || name != results[0].Name {
		t.Fatal("TableName mismatch")
	}
	if _, err := engine.TableName(-1); err == nil {
		t.Fatal("expected error for bad table id")
	}
}

func TestPublicAPIJoins(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := engine.Query(context.Background(), figure1Target(t), d3l.WithK(2), d3l.WithJoins())
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Joins) == 0 {
		t.Fatal("no augmented results")
	}
	for _, a := range ans.Joins {
		if a.JoinCoverage < a.BaseCoverage {
			t.Fatal("join coverage below base coverage")
		}
	}
	if engine.JoinGraphEdges() < 1 {
		t.Fatal("expected SA-join edges between the Figure 1 tables")
	}
}

func TestPublicAPIExplain(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := engine.Query(context.Background(), figure1Target(t), d3l.WithK(0), d3l.WithExplainFor("S2"))
	if err != nil {
		t.Fatal(err)
	}
	rows := ans.Explanation
	out := d3l.FormatExplanation(rows)
	if !strings.Contains(out, "DN") {
		t.Fatal("explanation missing header")
	}
	for _, r := range rows {
		for ev := d3l.Evidence(0); ev < d3l.NumEvidence; ev++ {
			if d := r.Distances[ev]; d < 0 || d > 1 {
				t.Fatalf("distance %v out of [0,1]", d)
			}
		}
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := d3l.SaveLakeDir(figure1Lake(t), dir); err != nil {
		t.Fatal(err)
	}
	lake, err := d3l.LoadLakeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lake.Len() != 3 {
		t.Fatalf("loaded %d tables, want 3", lake.Len())
	}
	tb, err := d3l.ReadCSVFile(filepath.Join(dir, "S1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name != "S1" || tb.Arity() != 5 {
		t.Fatal("CSV round trip lost shape")
	}
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Query(context.Background(), figure1Target(t), d3l.WithK(2)); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWeightsAreValid(t *testing.T) {
	w := d3l.DefaultWeights()
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			t.Fatal("negative default weight")
		}
		sum += v
	}
	if sum == 0 {
		t.Fatal("all-zero default weights")
	}
}

func TestOptionsValidationThroughPublicAPI(t *testing.T) {
	opts := d3l.DefaultOptions()
	opts.Threshold = 7
	if _, err := d3l.New(d3l.NewLake(), opts); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestConcurrentJoinsAndMutations hammers WithJoins queries (whose
// graph build and augmentation hold profile pointers across engine
// calls) concurrently with Add/Remove churn, plain queries and batches. Run under
// `go test -race`; this is the interleaving the public engine must
// serialise internally.
func TestConcurrentJoinsAndMutations(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := figure1Target(t)
	ctx := context.Background()
	churn := make([]*d3l.Table, 3)
	for i := range churn {
		churn[i] = mustTable(t, fmt.Sprintf("churn_%d", i),
			[]string{"Practice", "City", "Postcode"},
			[][]string{
				{"Blackfriars", "Salford", "M3 6AF"},
				{"Radclife Care", "Manchester", "M26 2SP"},
			})
	}
	var wg sync.WaitGroup
	fail := make(chan error, 32)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := engine.Query(ctx, target, d3l.WithK(3), d3l.WithJoins()); err != nil {
					fail <- fmt.Errorf("joins: %w", err)
					return
				}
				_ = engine.JoinGraphEdges()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := engine.Query(ctx, target, d3l.WithK(3)); err != nil {
				fail <- fmt.Errorf("topk: %w", err)
				return
			}
		}
	}()
	// A batch runs each target under its own core read lock, so a
	// mutation may land between two of them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := engine.QueryBatch(ctx, []*d3l.Table{target, target, target}, d3l.WithK(3)); err != nil {
				fail <- fmt.Errorf("batch: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			for _, c := range churn {
				if _, err := engine.Add(c); err != nil {
					fail <- fmt.Errorf("add: %w", err)
					return
				}
			}
			for _, c := range churn {
				if err := engine.Remove(c.Name); err != nil {
					fail <- fmt.Errorf("remove: %w", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	// The engine still serves and the graph rebuilds cleanly.
	if _, err := engine.Query(ctx, target, d3l.WithK(3), d3l.WithJoins()); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIMutableLake exercises the incremental serving surface:
// QueryBatch over several targets, Add making a table discoverable and
// refreshing the SA-join graph, Remove making it unreachable.
func TestPublicAPIMutableLake(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := figure1Target(t)
	ctx := context.Background()
	// ranking is the full ranked lake for target.
	ranking := func() []d3l.Result {
		t.Helper()
		ans, err := engine.Query(ctx, target, d3l.WithK(engine.NumTables()))
		if err != nil {
			t.Fatal(err)
		}
		return ans.Results
	}

	answers, err := engine.QueryBatch(ctx, []*d3l.Table{target, target}, d3l.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("got %d batch answers, want 2", len(answers))
	}
	ans, err := engine.Query(ctx, target, d3l.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	single := ans.Results
	for _, a := range answers {
		ranked := a.Results
		if len(ranked) != len(single) {
			t.Fatalf("batch answer size %d differs from single %d", len(ranked), len(single))
		}
		for i := range ranked {
			if ranked[i].Name != single[i].Name || ranked[i].Distance != single[i].Distance {
				t.Fatalf("batch rank %d (%s@%v) differs from single (%s@%v)",
					i, ranked[i].Name, ranked[i].Distance, single[i].Name, single[i].Distance)
			}
		}
	}

	edgesBefore := engine.JoinGraphEdges()
	// S4 duplicates S2's schema and values, so it must rank for the
	// Figure 1 target once added.
	s4 := mustTable(t, "S4",
		[]string{"Practice", "City", "Postcode", "Payment"},
		[][]string{
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
		})
	if _, err := engine.Add(s4); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ranking() {
		if r.Name == "S4" {
			found = true
		}
	}
	if !found {
		t.Fatal("added table not discoverable")
	}
	// The join graph was invalidated and rebuilt over the new lake: S4
	// shares S2's subject values, so edges cannot have decreased.
	if engine.JoinGraphEdges() < edgesBefore {
		t.Fatalf("join graph lost edges after Add: %d -> %d", edgesBefore, engine.JoinGraphEdges())
	}

	if err := engine.Remove("S4"); err != nil {
		t.Fatal(err)
	}
	for _, r := range ranking() {
		if r.Name == "S4" {
			t.Fatal("removed table still discoverable")
		}
	}
	if err := engine.Remove("S4"); err == nil {
		t.Fatal("expected error on double Remove")
	}
}
