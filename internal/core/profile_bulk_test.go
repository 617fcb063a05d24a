package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"d3l/internal/datagen"
	"d3l/internal/table"
)

// TestAttributeVectorIsAFunctionOfTheColumn: the nominated words arrive
// in the order the column's values nominated them, and the mean of their
// vectors is a floating-point sum, so the order they are added in
// reaches the last bits of the vector handed to planes.Sketch. The same
// 200 words, nominated in 50 different orders, must hand over the same
// bits 50 times.
func TestAttributeVectorIsAFunctionOfTheColumn(t *testing.T) {
	p, err := newProfiler(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var first []float64
	for round := 0; round < 50; round++ {
		// Another order each round: a rotation of a scrambled one.
		nominated := make([]string, 200)
		for i := range nominated {
			nominated[i] = fmt.Sprintf("word%03d", ((i+round*37)*7919)%200)
		}
		vec := p.attributeVector(nominated, &profileScratch{})
		if first == nil {
			first = vec
			continue
		}
		for i := range vec {
			if math.Float64bits(vec[i]) != math.Float64bits(first[i]) {
				t.Fatalf("round %d: component %d is %x, was %x on round 0", round, i, math.Float64bits(vec[i]), math.Float64bits(first[i]))
			}
		}
	}
}

// TestProfileTablesEqualsProfileTable: the bulk path, PrepareAll — per-worker
// scratch, word memo and all — returns, table for table, what profiling
// each table on its own returns, on one worker and on eight.
func TestProfileTablesEqualsProfileTable(t *testing.T) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 11
	cfg.BaseTables = 5
	cfg.DerivedTables = 60
	cfg.MinRows, cfg.MaxRows = 20, 40
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A removed table's stub (no columns) is part of a lake's table list.
	lake.Remove(lake.Table(9).Name)
	e, err := BuildEngine(table.NewLake(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tables := lake.Tables()
	for _, parallelism := range []int{1, 8} {
		if err := e.SetParallelism(parallelism); err != nil {
			t.Fatal(err)
		}
		bulk, err := e.PrepareAll(tables)
		if err != nil {
			t.Fatal(err)
		}
		if len(bulk) != len(tables) {
			t.Fatalf("parallelism %d: %d profile lists for %d tables", parallelism, len(bulk), len(tables))
		}
		for i, tb := range tables {
			want := e.prof.ProfileTable(i, tb, e.classifier)
			if !reflect.DeepEqual(bulk[i].profiles, want) {
				t.Fatalf("parallelism %d: table %d (%s): bulk profiles differ from ProfileTable's", parallelism, i, tb.Name)
			}
		}
	}
}

// TestPooledScratchProfilesAlike: a target's profiles come out of a
// recycled scratch, so profiling a table again, after other tables went
// through the same pool, gives the profiles it gave the first time — and
// those first profiles, held meanwhile, are not changed by the tables
// profiled after them. A scratch handed back keeps none of its table's
// values.
func TestPooledScratchProfilesAlike(t *testing.T) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 19
	cfg.BaseTables = 4
	cfg.DerivedTables = 12
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := BuildEngine(table.NewLake(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tables := lake.Tables()
	first := make([][]Profile, len(tables))
	for i, tb := range tables {
		first[i] = e.prof.ProfileTable(i, tb, e.classifier)
	}
	for i := len(tables) - 1; i >= 0; i-- {
		if again := e.prof.ProfileTable(i, tables[i], e.classifier); !reflect.DeepEqual(again, first[i]) {
			t.Fatalf("table %d (%s): profiled again after other tables, its profiles differ", i, tables[i].Name)
		}
	}

	s := e.prof.scratch.Get().(*profileScratch)
	e.prof.profileTable(0, tables[0], e.classifier, s)
	e.prof.putScratch(s)
	for _, v := range s.values[:cap(s.values)] {
		if v != "" {
			t.Fatalf("a pooled scratch holds the cell %q", v)
		}
	}
}
