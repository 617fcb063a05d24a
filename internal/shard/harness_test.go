package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"d3l"
	"d3l/internal/datagen"
)

// testLake builds a small deterministic synthetic lake and appends two
// byte-identical clones of one base table under distinct names: exact
// distance ties are then guaranteed in every ranking that reaches
// them, so the suite always exercises the (Distance, Name) total-order
// tie-break across the shard merge.
func testLake(t testing.TB, seed uint64, derived int) *d3l.Lake {
	t.Helper()
	lake, _, err := datagen.Synthetic(datagen.SyntheticConfig{
		Seed:          seed,
		BaseTables:    4,
		DerivedTables: derived,
		MinRows:       20,
		MaxRows:       40,
		RenameProb:    0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := lake.Table(0)
	for _, name := range []string{"tie_twin_a", "tie_twin_b"} {
		if _, err := lake.Add(cloneTable(t, src, name)); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// cloneTable rebuilds a table's contents under a new name.
func cloneTable(t testing.TB, src *d3l.Table, name string) *d3l.Table {
	t.Helper()
	cols := make([]string, len(src.Columns))
	rows := 0
	for i, c := range src.Columns {
		cols[i] = c.Name
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	data := make([][]string, rows)
	for r := range data {
		data[r] = make([]string, len(cols))
		for ci, c := range src.Columns {
			if r < len(c.Values) {
				data[r][ci] = c.Values[r]
			}
		}
	}
	out, err := d3l.NewTable(name, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// subTable rebuilds a table from its first maxRows rows, keeping the
// name — the in-place Update payload.
func subTable(t testing.TB, src *d3l.Table, maxRows int) *d3l.Table {
	t.Helper()
	clone := cloneTable(t, src, src.Name+"__tmp")
	rows := 0
	for _, c := range clone.Columns {
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	if rows > maxRows {
		rows = maxRows
	}
	cols := make([]string, len(clone.Columns))
	data := make([][]string, rows)
	for i, c := range clone.Columns {
		cols[i] = c.Name
	}
	for r := range data {
		data[r] = make([]string, len(cols))
		for ci, c := range clone.Columns {
			if r < len(c.Values) {
				data[r][ci] = c.Values[r]
			}
		}
	}
	out, err := d3l.NewTable(src.Name, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// buildMono indexes the lake monolithically — the reference answers.
func buildMono(t testing.TB, lake *d3l.Lake) *d3l.Engine {
	t.Helper()
	e, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// liveTargets picks every stride-th live lake table as a query target.
func liveTargets(lake *d3l.Lake, stride int) []*d3l.Table {
	var out []*d3l.Table
	for i := 0; i < lake.Len(); i += stride {
		tb := lake.Table(i)
		if len(tb.Columns) > 0 {
			out = append(out, tb)
		}
	}
	return out
}

// assertAnswersEqual deep-compares the deterministic parts of two
// answers: results, explanation rows and work stats. Elapsed is
// wall-clock and Plan is a monolith-only diagnostic; neither crosses
// the wire, so neither is part of the equivalence contract.
func assertAnswersEqual(t *testing.T, label string, want, got *d3l.Answer) {
	t.Helper()
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatalf("%s: results diverge\nmono: %+v\nshard: %+v", label, want.Results, got.Results)
	}
	if !reflect.DeepEqual(want.Explanation, got.Explanation) {
		t.Fatalf("%s: explanations diverge\nmono: %+v\nshard: %+v", label, want.Explanation, got.Explanation)
	}
	if want.Stats.K != got.Stats.K ||
		want.Stats.CandidatePairs != got.Stats.CandidatePairs ||
		want.Stats.TablesScored != got.Stats.TablesScored {
		t.Fatalf("%s: stats diverge: mono %+v shard %+v", label, want.Stats, got.Stats)
	}
	if got.Degraded {
		t.Fatalf("%s: healthy sharded answer reports degraded", label)
	}
	// A sharded answer is cached and retained like any other, so it must
	// hold what it reports and no more: a result list or a winner's rows
	// with capacity behind them would be a view into a shard partial's
	// slab. (core's TestMergedAnswerDoesNotPinPartials covers the view
	// that hides its capacity.)
	if cap(got.Results) != len(got.Results) {
		t.Fatalf("%s: %d results in a list of capacity %d", label, len(got.Results), cap(got.Results))
	}
	for _, r := range got.Results {
		if cap(r.Alignments) != len(r.Alignments) {
			t.Fatalf("%s: %q holds %d alignment rows in a slice of capacity %d", label, r.Name, len(r.Alignments), cap(r.Alignments))
		}
	}
}

// postJSON POSTs a JSON body and returns status and response bytes.
func postJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func kptr(k int) *int { return &k }
