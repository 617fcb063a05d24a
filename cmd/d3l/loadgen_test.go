package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"d3l"
)

// testLake is a four-table lake with ten rows per table.
func testLake(t *testing.T) *d3l.Lake {
	t.Helper()
	lake := d3l.NewLake()
	for i := 0; i < 4; i++ {
		rows := make([][]string, 10)
		for r := range rows {
			rows[r] = []string{fmt.Sprintf("city-%d-%d", i, r), fmt.Sprint(100*i + r)}
		}
		tb, err := d3l.NewTable(fmt.Sprintf("table_%d", i), []string{"city", "population"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// TestSampleTargetsRefusesMetadataOnlyLake pins the loadgen fix: a lake
// with rows yields trimmed targets and keeps its table order, while the
// lake of a loaded snapshot — names and columns, no rows — is refused
// with an error that names -dir, instead of silently driving zero-row
// targets.
func TestSampleTargetsRefusesMetadataOnlyLake(t *testing.T) {
	lake := testLake(t)
	corpus, err := sampleTargets(lake, 42, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 3 {
		t.Fatalf("sampled %d targets, want 3", len(corpus))
	}
	for _, tj := range corpus {
		if len(tj.Rows) != 4 || len(tj.Columns) != 2 || !strings.HasPrefix(tj.Name, "target_table_") {
			t.Fatalf("target %q: %d rows × %d columns, want 4 × 2 named after its source", tj.Name, len(tj.Rows), len(tj.Columns))
		}
	}
	for id, tb := range lake.Tables() {
		if want := fmt.Sprintf("table_%d", id); tb.Name != want {
			t.Fatalf("sampling reordered the lake: table %d is %q, want %q", id, tb.Name, want)
		}
	}

	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := d3l.Save(engine, &snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := d3l.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sampleTargets(loaded.Lake(), 42, 3, 4); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("metadata-only lake: err = %v, want a refusal naming -dir", err)
	}
	if _, err := sampleTargets(d3l.NewLake(), 42, 3, 4); err == nil {
		t.Fatal("empty lake: expected an error")
	}
}
