package d3l

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"d3l/internal/datagen"
)

// TestSaveHoldsAWindowNotTheSnapshot: Save streams the snapshot, so
// what it allocates — the signature numbering, the extent codings, the
// encoder's window — is a small fraction of the snapshot it writes,
// never a buffer the size of it. The snapshot carries the SA-join graph,
// a tombstoned table and a dead attribute, and LoadFile reads back what
// Save wrote.
func TestSaveHoldsAWindowNotTheSnapshot(t *testing.T) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 5
	cfg.BaseTables = 12
	cfg.DerivedTables = 300
	cfg.MinRows, cfg.MaxRows = 20, 40
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 31} {
		if err := e.Remove(lake.Table(id).Name); err != nil {
			t.Fatal(err)
		}
	}
	if e.JoinGraphEdges() == 0 {
		t.Fatal("the lake has no SA-join edges to save")
	}
	var out bytes.Buffer
	if err := Save(e, &out); err != nil {
		t.Fatal(err)
	}

	allocated := uint64(1<<63 - 1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := Save(e, io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(out.Len() / 4); allocated >= limit {
		t.Fatalf("Save of a %d-byte snapshot allocated %d bytes, not under a quarter of it (%d)", out.Len(), allocated, limit)
	}
	t.Logf("Save of a %d-byte snapshot allocated %d bytes", out.Len(), allocated)

	path := filepath.Join(t.TempDir(), "lake.d3l")
	if err := SaveFile(e, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Save(loaded, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), out.Bytes()) {
		t.Fatal("a snapshot loaded with LoadFile does not save back to the same bytes")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.d3l")); !os.IsNotExist(err) {
		t.Fatalf("LoadFile of a missing file: %v", err)
	}
}
