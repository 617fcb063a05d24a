package joins

import (
	"testing"

	"d3l/internal/core"
	"d3l/internal/table"
)

func TestBuildGraphEnsembleFindsJoins(t *testing.T) {
	e := buildEngine(t)
	g, err := BuildGraphEnsemble(e, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() == 0 {
		t.Fatal("ensemble-backed graph has no edges")
	}
	s1, _ := e.Lake().IDByName("S1")
	n1, _ := e.Lake().IDByName("N1")
	for _, edge := range g.Neighbours(n1) {
		if edge.To == s1 {
			t.Fatal("noise should not join practice tables")
		}
	}
}

// TestEnsembleGraphFindsSkewedContainment builds the case LSH Ensemble
// exists for: a small dimension table whose subject attribute is fully
// contained in a much larger fact column. Jaccard between the two sets
// is small (|∩|/|∪| ≈ |dim|/|fact|), but containment is 1.
func TestEnsembleGraphFindsSkewedContainment(t *testing.T) {
	lake := table.NewLake()
	// Small dimension table: 8 practices.
	dimRows := make([][]string, 8)
	names := []string{"Blackfriars", "Radclife Care", "Bolton Medical", "Oak Tree Surgery",
		"Elm Grove Practice", "The London Clinic", "Firs Surgery", "Yew Practice"}
	for i, n := range names {
		dimRows[i] = []string{n, itoa(1000 + i)}
	}
	dim, err := table.New("dim", []string{"Practice", "Patients"}, dimRows)
	if err != nil {
		t.Fatal(err)
	}
	// Large fact table: every practice appears plus 200 extra entities.
	factRows := make([][]string, 0, 240)
	for rep := 0; rep < 2; rep++ {
		for i, n := range names {
			factRows = append(factRows, []string{n, itoa(i*7 + rep)})
		}
	}
	for i := 0; i < 200; i++ {
		factRows = append(factRows, []string{"Visitor Clinic " + itoa(i), itoa(i)})
	}
	fact, err := table.New("fact", []string{"Provider", "Visits"}, factRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*table.Table{dim, fact} {
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultOptions()
	opts.MaxExtentSample = 0
	e, err := core.BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraphEnsemble(e, GraphOptions{MinOverlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dimID, _ := lake.IDByName("dim")
	factID, _ := lake.IDByName("fact")
	found := false
	for _, edge := range g.Neighbours(dimID) {
		if edge.To == factID {
			found = true
			if edge.Overlap < 0.5 {
				t.Fatalf("containment edge overlap %v, want high", edge.Overlap)
			}
		}
	}
	if !found {
		t.Fatal("ensemble graph missed the contained join key")
	}
}

func TestEnsembleGraphAgreesWithForestOnBalancedSets(t *testing.T) {
	e := buildEngine(t)
	forest := buildGraph(t, e)
	ens, err := BuildGraphEnsemble(e, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	// On the balanced fixture the two constructions should find joins
	// between the same practice tables (exact edge sets may differ).
	s2, _ := e.Lake().IDByName("S2")
	if len(forest.Neighbours(s2)) > 0 && len(ens.Neighbours(s2)) == 0 {
		t.Fatal("ensemble graph lost all edges the forest graph found for S2")
	}
}
