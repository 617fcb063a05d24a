package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The experiment tables whose rows differ only in query parameters
// (evidence mask, Eq. 1 weighting) are pinned at tinyScale against
// fixtures under testdata/. None of the three has a timing column, so
// each report is compared whole. Regenerate intentionally with:
//
//	go test ./internal/experiments -run GoldenTables -update
var update = flag.Bool("update", false, "rewrite the experiment tables under testdata")

func TestGoldenTables(t *testing.T) {
	for _, c := range []struct {
		file string
		run  func(*Env) (Report, error)
	}{
		{"exp1.txt", RunExp1},
		{"abl_weighting.txt", RunAblationWeighting},
		{"abl_leave_one_out.txt", RunAblationEvidencePairs},
	} {
		t.Run(c.file, func(t *testing.T) {
			rep, err := c.run(tinyReal(t))
			if err != nil {
				t.Fatal(err)
			}
			got := rep.String()
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", rep.ID, path, got, want)
			}
		})
	}
}
