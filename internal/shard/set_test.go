package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"d3l"
	"d3l/internal/persist"
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

// TestSetRefusesReplicasOfOtherWidths: two replicas sketching with
// other MinHash widths (or another seed) code their distances on other
// grids, so a query over both answers an error that names the widths,
// never a ranking.
func TestSetRefusesReplicasOfOtherWidths(t *testing.T) {
	lake := testLake(t, 29, 6)
	narrow := d3l.DefaultOptions()
	narrow.MinHashSize, narrow.ForestHashes = 128, 16
	reseeded := d3l.DefaultOptions()
	reseeded.Seed++
	for _, c := range []struct {
		name string
		opts d3l.Options
		want string
	}{
		{"MinHashSize", narrow, "MinHashSize 128"},
		{"seed", reseeded, fmt.Sprintf("seed %#x", reseeded.Seed)},
	} {
		t.Run(c.name, func(t *testing.T) {
			base, err := BuildSet(lake, 2, d3l.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			other, err := BuildSet(lake, 2, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			mixed, err := NewSet([]*d3l.Engine{base.Shard(0), other.Shard(1)}, base.Placement())
			if err != nil {
				t.Fatal(err)
			}
			ans, err := mixed.Query(context.Background(), lake.Table(0), d3l.WithK(3))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("query over mixed replicas: answer %v, err %v; want an error naming %q", ans, err, c.want)
			}
		})
	}
}

// TestBuildSetRemovedSlots: a lake slot left by Lake.Remove goes to no
// shard. Inside the lake, the next table's owner fills it, so a set
// written and loaded back still counts it and gives the next add the
// monolith's id; a lake that ends in such a slot is refused, as no
// shard would hold it.
func TestBuildSetRemovedSlots(t *testing.T) {
	lake := testLake(t, 29, 6)
	lake.Remove(lake.Table(3).Name)
	mono := buildMono(t, lake)
	set, err := BuildSet(lake, 3, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSet(set, dir); err != nil {
		t.Fatal(err)
	}
	if set, err = LoadSet(filepath.Join(dir, ManifestName), 0); err != nil {
		t.Fatal(err)
	}
	if mono.NumTables() != set.NumTables() || mono.NumAttributes() != set.NumAttributes() {
		t.Fatalf("slots: mono %d tables, %d attributes; set %d, %d",
			mono.NumTables(), mono.NumAttributes(), set.NumTables(), set.NumAttributes())
	}
	wantID, err := mono.Add(cloneTable(t, lake.Table(1), "after_removed"))
	if err != nil {
		t.Fatal(err)
	}
	if gotID, err := set.Add(cloneTable(t, lake.Table(1), "after_removed")); err != nil || gotID != wantID {
		t.Fatalf("add: got id %d, %v; want id %d", gotID, err, wantID)
	}

	lake.Remove(lake.Table(lake.Len() - 1).Name)
	if _, err := BuildSet(lake, 3, d3l.DefaultOptions()); !errors.Is(err, d3l.ErrUnsupported) {
		t.Fatalf("a lake ending in a removed slot: got %v, want ErrUnsupported", err)
	}
}

// TestWriteSetLeavesNoTempManifest: when the manifest cannot land — a
// non-empty directory stands at its name — WriteSet returns the error
// and leaves no temporary file behind, and what stands at the name is
// untouched.
func TestWriteSetLeavesNoTempManifest(t *testing.T) {
	set, err := BuildSet(testLake(t, 13, 4), 2, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	keep := filepath.Join(dir, ManifestName, "keep")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteSet(set, dir); err == nil {
		t.Fatal("WriteSet over a directory named like the manifest succeeded")
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(temps) > 0 {
		t.Fatalf("temporary files left behind: %v", temps)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("a failed WriteSet disturbed the manifest's path: %v", err)
	}
}

// TestManifestRoundTrip proves the build-once/serve-many flow for
// sharded sets: BuildSet → WriteSet → LoadSet answers exactly like the
// monolith (and so like the set it was snapshotted from). No shard
// snapshot carries an SA-join graph: no sharded topology serves joins.
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
	m, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range m.Snapshots {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := persist.NewDecoder(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dec.SectionSizes()[persist.SecJoinGraph]; ok {
			t.Fatalf("%s carries an SA-join graph", name)
		}
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
	p5a, err := NewPlacement(5)
	if err != nil {
		t.Fatal(err)
	}
	p5b, _ := NewPlacement(5)
	p6, _ := NewPlacement(6)

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
