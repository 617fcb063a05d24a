package shard

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"d3l"
)

// TestSetErrorContract pins the error surface: joins are rejected with
// ErrUnsupported, unknown explanation targets mirror the monolith's
// exact ErrTableNotFound message, and queries after the failure still
// work.
func TestSetErrorContract(t *testing.T) {
	lake := testLake(t, 29, 6)
	mono := buildMono(t, lake)
	set, err := BuildSet(lake, 2, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	target := lake.Table(0)

	if _, err := set.Query(ctx, target, d3l.WithK(3), d3l.WithJoins()); !errors.Is(err, d3l.ErrUnsupported) {
		t.Fatalf("joins over shards: got %v, want ErrUnsupported", err)
	}

	_, wantErr := mono.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor("no_such_table"))
	_, gotErr := set.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor("no_such_table"))
	if !errors.Is(gotErr, d3l.ErrTableNotFound) {
		t.Fatalf("unknown explain target: got %v, want ErrTableNotFound", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error text diverges:\nmono: %v\nset:  %v", wantErr, gotErr)
	}

	if _, err := set.Query(ctx, target, d3l.WithK(3)); err != nil {
		t.Fatalf("query after rejected options: %v", err)
	}
}

// TestManifestRoundTrip proves the build-once/serve-many flow for
// sharded sets: BuildSet → WriteSet → LoadSet answers exactly like the
// monolith (and so like the set it was snapshotted from).
func TestManifestRoundTrip(t *testing.T) {
	lake := testLake(t, 97, 10)
	mono := buildMono(t, lake)
	set, err := BuildSet(lake, 3, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSet(set, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(filepath.Join(dir, ManifestName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 3 {
		t.Fatalf("loaded %d shards, want 3", loaded.NumShards())
	}
	ctx := context.Background()
	for _, target := range liveTargets(lake, 4) {
		want, err := mono.Query(ctx, target, d3l.WithK(7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(ctx, target, d3l.WithK(7))
		if err != nil {
			t.Fatal(err)
		}
		assertAnswersEqual(t, "loaded "+target.Name, want, got)
	}
}

// TestPlacementProperties pins the ring: determinism across
// constructions, full shard coverage at realistic table counts, and
// bounded movement under a shard-count change (the consistent-hashing
// point — most placements survive adding a shard).
func TestPlacementProperties(t *testing.T) {
	p5a, err := NewPlacement(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	p5b, _ := NewPlacement(5, 0)
	p6, _ := NewPlacement(6, 0)

	names := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		names = append(names, "table_"+string(rune('a'+i%26))+"_"+itoa(i))
	}
	seen := make(map[int]int)
	moved := 0
	for _, name := range names {
		o := p5a.Owner(name)
		if o != p5b.Owner(name) {
			t.Fatalf("placement not deterministic for %q", name)
		}
		if o < 0 || o >= 5 {
			t.Fatalf("owner %d out of range for %q", o, name)
		}
		seen[o]++
		if p6.Owner(name) != o {
			moved++
		}
	}
	if len(seen) != 5 {
		t.Fatalf("only %d of 5 shards own tables: %v", len(seen), seen)
	}
	// Ideal movement 5→6 is 1/6 ≈ 17%; allow generous slack but fail
	// a placement that reshuffles like a modulo hash (~83%).
	if frac := float64(moved) / float64(len(names)); frac > 0.40 {
		t.Fatalf("%.0f%% of tables moved going 5→6 shards; consistent hashing should move ~17%%", 100*frac)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
