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
// in a map, and the mean of their vectors is a floating-point sum, so the
// order they are added in reaches the last bits of the vector handed to
// planes.Sketch. Profiling one many-word column 50 times must hand over
// the same bits 50 times.
func TestAttributeVectorIsAFunctionOfTheColumn(t *testing.T) {
	p, err := newProfiler(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var first []float64
	for round := 0; round < 50; round++ {
		// A fresh map each round: iteration order is drawn per map.
		nominated := make(map[string]struct{})
		for i := 0; i < 200; i++ {
			nominated[fmt.Sprintf("word%03d", (i*7919)%200)] = struct{}{}
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

// TestProfileTablesEqualsProfileTable: the bulk path — per-worker
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
		bulk := e.ProfileTables(tables)
		if len(bulk) != len(tables) {
			t.Fatalf("parallelism %d: %d profile lists for %d tables", parallelism, len(bulk), len(tables))
		}
		for i, tb := range tables {
			want := e.prof.ProfileTable(i, tb, e.classifier)
			if !reflect.DeepEqual(bulk[i], want) {
				t.Fatalf("parallelism %d: table %d (%s): bulk profiles differ from ProfileTable's", parallelism, i, tb.Name)
			}
		}
	}
}
