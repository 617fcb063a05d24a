package main

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"d3l"
)

// TestQueryBudgetFlag pins -budget's contract with the library's
// WithCandidateBudget: 0 derives the budget from k and a negative budget
// is refused with ErrInvalidOptions — as POST /v1/query answers 400 —
// instead of silently running with the default.
func TestQueryBudgetFlag(t *testing.T) {
	lake := testLake(t)
	dir := t.TempDir()
	if err := d3l.SaveLakeDir(lake, dir); err != nil {
		t.Fatal(err)
	}
	query := func(budget string) error {
		args := []string{"query", "-dir", dir, "-target", filepath.Join(dir, "table_0.csv"), "-k", "2", "-budget", budget}
		return run(context.Background(), args, io.Discard, io.Discard)
	}
	if err := query("0"); err != nil {
		t.Fatalf("-budget 0: %v", err)
	}
	if err := query("-5"); !errors.Is(err, d3l.ErrInvalidOptions) {
		t.Fatalf("-budget -5: err = %v, want ErrInvalidOptions", err)
	}
}
