package d3l

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"d3l/internal/datagen"
)

// TestSaveLaysTheSnapshotDownOnce: the encoder is sized before the first
// section is written and never regrown — the snapshot, trailer included,
// fits the reservation — and the reservation is an estimate, not a
// guess: at most a tenth above what was written.
func TestSaveLaysTheSnapshotDownOnce(t *testing.T) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 5
	cfg.BaseTables = 6
	cfg.DerivedTables = 80
	cfg.MinRows, cfg.MaxRows = 20, 40
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Mutations leave tombstoned tables and attributes to be sized too.
	for _, id := range []int{2, 31} {
		if err := e.Remove(lake.Table(id).Name); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.RLock()
	enc, err := e.encodeSnapshot()
	e.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	reserved := enc.Cap()
	var out bytes.Buffer
	if _, err := enc.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if enc.Cap() != reserved || out.Len() > reserved {
		t.Fatalf("wrote %d bytes through an encoder of %d, %d after the trailer: it regrew", out.Len(), reserved, enc.Cap())
	}
	if limit := out.Len() + out.Len()/10; reserved > limit {
		t.Fatalf("reserved %d bytes for a %d-byte snapshot, more than 1.1×", reserved, out.Len())
	}

	// LoadFile reads what Save wrote, as Load does.
	path := filepath.Join(t.TempDir(), "lake.d3l")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
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
