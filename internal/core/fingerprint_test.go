package core

import (
	"bytes"
	"errors"
	"testing"
)

// TestFingerprintMovesOnMutation pins the cache-version contract:
// stable across queries, changed by every Add, Remove and Compact.
func TestFingerprintMovesOnMutation(t *testing.T) {
	e := buildFigure1Engine(t)
	fp0 := e.Fingerprint()
	if fp0 != e.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if _, err := topK(e, figure1Target(t), 3); err != nil {
		t.Fatal(err)
	}
	if e.Fingerprint() != fp0 {
		t.Fatal("fingerprint moved on a read-only query")
	}

	seen := map[uint64]bool{fp0: true}
	step := func(label string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fp := e.Fingerprint()
		if seen[fp] {
			t.Fatalf("%s: fingerprint %x repeats an earlier state", label, fp)
		}
		seen[fp] = true
	}
	step("add", func() error {
		_, err := e.Add(mustTable(t, "fp_extra",
			[]string{"Practice", "City"},
			[][]string{{"Blackfriars", "Salford"}}))
		return err
	})
	step("remove", func() error { return e.Remove("fp_extra") })
	step("compact", func() error { return e.Compact() })
}

// TestFingerprintSurvivesSnapshot: a replica loaded from a snapshot
// of a pristine engine reports the same fingerprint — both sides are
// at version zero over identical identity. (This is a determinism
// check on the base hash, not a cross-instance cache guarantee: the
// base covers identity, not cell contents, so caches spanning engine
// instances must add their own discriminator.)
func TestFingerprintSurvivesSnapshot(t *testing.T) {
	e := buildFigure1Engine(t)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != e.Fingerprint() {
		t.Fatalf("loaded fingerprint %x, want %x", loaded.Fingerprint(), e.Fingerprint())
	}
}

// TestTableNotFoundTyped pins the typed not-found error on both name
// lookups that can miss: Explain and Remove. The serving layer relies
// on errors.Is to answer 404 instead of 500.
func TestTableNotFoundTyped(t *testing.T) {
	e := buildFigure1Engine(t)
	_, err := e.Explain(figure1Target(t), "no_such_table")
	if !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("Explain miss = %v, want ErrTableNotFound", err)
	}
	if err := e.Remove("no_such_table"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("Remove miss = %v, want ErrTableNotFound", err)
	}
	if _, err := e.Explain(figure1Target(t), "S2"); err != nil {
		t.Fatalf("Explain hit errored: %v", err)
	}
}
