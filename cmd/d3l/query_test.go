package main

import (
	"errors"
	"path/filepath"
	"testing"

	"d3l"
)

// TestQueryBudgetFlag pins -budget's contract with the library's
// WithCandidateBudget: 0 keeps the engine default and a negative budget
// is refused with ErrInvalidOptions — as POST /v1/query answers 400 —
// instead of silently running with the default.
func TestQueryBudgetFlag(t *testing.T) {
	lake := testLake(t)
	dir := t.TempDir()
	if err := d3l.SaveLakeDir(lake, dir); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "table_0.csv")
	if err := runQuery(dir, "", target, 2, false, 0, "", "", false); err != nil {
		t.Fatalf("-budget 0: %v", err)
	}
	if err := runQuery(dir, "", target, 2, false, -5, "", "", false); !errors.Is(err, d3l.ErrInvalidOptions) {
		t.Fatalf("-budget -5: err = %v, want ErrInvalidOptions", err)
	}
}
