package watch

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"d3l"
)

// writeFile writes a CSV under dir and bumps its mtime past any
// previously recorded state, so a rewrite is always detected even on
// filesystems with coarse timestamp granularity.
func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := os.Chtimes(path, now, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
}

// engineSink adapts *d3l.Engine to Sink, the tests' bare-engine target.
type engineSink struct{ e *d3l.Engine }

func (s engineSink) Has(name string) bool { return s.e.HasTable(name) }
func (s engineSink) Add(t *d3l.Table) error {
	_, err := s.e.Add(t)
	return err
}
func (s engineSink) Update(t *d3l.Table) (int, error) {
	st, err := s.e.Update(t)
	return st.Reprofiled, err
}
func (s engineSink) Remove(name string) error { return s.e.Remove(name) }

func newEngine(t *testing.T, dir string) *d3l.Engine {
	t.Helper()
	lake, err := d3l.LoadLakeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

const cityCSV = "city,population\nparis,2100000\nlyon,520000\n"

func TestSyncLifecycle(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "cities.csv", cityCSV)
	writeFile(t, dir, "people.csv", "name,age\nada,36\ngrace,52\n")

	eng := newEngine(t, dir)
	w := New(dir, engineSink{eng})
	if err := w.Seed(); err != nil {
		t.Fatal(err)
	}

	// Seeded watcher over an unchanged directory: no-op cycle.
	stats, err := w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.changed() || stats.Failed != 0 {
		t.Fatalf("seeded sync mutated: %+v", stats)
	}

	// Created file folds in as Add.
	writeFile(t, dir, "rivers.csv", "river,length_km\nrhone,813\nseine,777\n")
	stats, err = w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Updated != 0 || stats.Removed != 0 {
		t.Fatalf("after create: %+v", stats)
	}
	if !eng.HasTable("rivers") {
		t.Fatal("rivers not added to engine")
	}

	// Rewriting one of two columns folds in as Update with a
	// single-column delta: the untouched column keeps its profile.
	writeFile(t, dir, "cities.csv", "city,population\nparis,2100000\nmarseille,870000\n")
	stats, err = w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updated != 1 || stats.Added != 0 || stats.Removed != 0 {
		t.Fatalf("after rewrite: %+v", stats)
	}
	if stats.DeltaCols != 2 {
		t.Fatalf("DeltaCols = %d, want 2 (both columns changed)", stats.DeltaCols)
	}

	// A rewrite that changes exactly one column re-profiles exactly one.
	writeFile(t, dir, "cities.csv", "city,population\nparis,2148000\nmarseille,873000\n")
	stats, err = w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updated != 1 || stats.DeltaCols != 1 {
		t.Fatalf("one-column rewrite: Updated=%d DeltaCols=%d, want 1/1", stats.Updated, stats.DeltaCols)
	}

	// Deleted file folds in as Remove.
	if err := os.Remove(filepath.Join(dir, "people.csv")); err != nil {
		t.Fatal(err)
	}
	stats, err = w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("after delete: %+v", stats)
	}
	if eng.HasTable("people") {
		t.Fatal("people still live after removal")
	}

	// Steady state again.
	stats, err = w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.changed() || stats.Failed != 0 {
		t.Fatalf("steady-state sync mutated: %+v", stats)
	}
}

func TestSyncUnseededAddsEverything(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "cities.csv", cityCSV)
	eng := newEngine(t, t.TempDir()) // empty engine, different dir
	w := New(dir, engineSink{eng})
	stats, err := w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || !eng.HasTable("cities") {
		t.Fatalf("unseeded sync: %+v", stats)
	}
}

// An unseeded watcher over an engine that already holds the tables
// (snapshot-served lake) must fold the first cycle as updates, not
// duplicate adds.
func TestSyncUnseededOverExistingEngine(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "cities.csv", cityCSV)
	eng := newEngine(t, dir)
	w := New(dir, engineSink{eng})
	stats, err := w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Updated != 1 || stats.Failed != 0 {
		t.Fatalf("unseeded over existing: %+v", stats)
	}
}

func TestSyncFailedFileRetries(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "broken.csv", "") // no header: ReadCSV fails
	eng := newEngine(t, t.TempDir())
	w := New(dir, engineSink{eng})

	stats, err := w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Added != 0 {
		t.Fatalf("broken file: %+v", stats)
	}

	// The failure was not recorded as applied, so fixing the file is
	// picked up by the next cycle.
	writeFile(t, dir, "broken.csv", "a,b\n1,2\n")
	stats, err = w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Failed != 0 {
		t.Fatalf("fixed file: %+v", stats)
	}
	if !eng.HasTable("broken") {
		t.Fatal("fixed table not added")
	}
}

func TestSyncSkipsInvalidNames(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "..csv", "a,b\n1,2\n") // stem "." is not a table name
	eng := newEngine(t, t.TempDir())
	w := New(dir, engineSink{eng})
	stats, err := w.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 || stats.Added != 0 {
		t.Fatalf("invalid name: %+v", stats)
	}
}

func TestRunStopsOnCancel(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "cities.csv", cityCSV)
	eng := newEngine(t, t.TempDir())
	w := New(dir, engineSink{eng})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, time.Millisecond) }()
	// The first cycle runs immediately; wait for the add to land.
	deadline := time.After(5 * time.Second)
	for !eng.HasTable("cities") {
		select {
		case <-deadline:
			t.Fatal("Run never applied the initial sync")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}
