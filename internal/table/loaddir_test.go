package table

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadLakeDirIDsFollowSortedNames: files are parsed concurrently and
// still enter the lake in name order, whatever order the directory lists
// or the workers finish them in.
func TestLoadLakeDirIDsFollowSortedNames(t *testing.T) {
	dir := t.TempDir()
	const n = 64
	for i := n - 1; i >= 0; i-- {
		// Sizes vary so workers finish out of order.
		rows := strings.Repeat(fmt.Sprintf("v%d,%d\n", i, i), 1+(i*37)%50)
		writeFile(t, dir, fmt.Sprintf("t%03d.csv", i), "name,num\n"+rows)
	}
	writeFile(t, dir, "notes.txt", "not a table")
	lake, err := LoadLakeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lake.Len() != n {
		t.Fatalf("loaded %d tables, want %d", lake.Len(), n)
	}
	for id := 0; id < n; id++ {
		if want := fmt.Sprintf("t%03d", id); lake.Table(id).Name != want {
			t.Fatalf("id %d is %q, want %q", id, lake.Table(id).Name, want)
		}
		if got, want := lake.Table(id).Rows(), 1+(id*37)%50; got != want {
			t.Fatalf("table %d has %d rows, want %d", id, got, want)
		}
	}
}

// TestLoadLakeDirReportsFirstFailureByName: of two malformed files the
// one that sorts first is the one reported, as when files were read one
// at a time; and a duplicate stem before it wins over both.
func TestLoadLakeDirReportsFirstFailureByName(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 40; i++ {
		writeFile(t, dir, fmt.Sprintf("t%02d.csv", i), "a,b\n1,2\n")
	}
	writeFile(t, dir, "t17.csv", "a,b\n\"unterminated,2\n")
	writeFile(t, dir, "t31.csv", "")
	for round := 0; round < 20; round++ {
		_, err := LoadLakeDir(dir)
		if err == nil || !strings.Contains(err.Error(), "loading t17.csv") {
			t.Fatalf("round %d: err = %v, want the failure of t17.csv", round, err)
		}
	}
	// "t05.CSV" shares its stem with "t05.csv" and sorts before it.
	writeFile(t, dir, "t05.CSV", "a,b\n1,2\n")
	_, err := LoadLakeDir(dir)
	if !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName for the stem t05", err)
	}
}
