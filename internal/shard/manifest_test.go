package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifestRefusals are manifests ReadManifest must refuse, each with a
// word its error has to carry so the operator sees which field is
// wrong.
var manifestRefusals = []struct {
	name, body, want string
}{
	{"not json", `{"version":`, "parsing"},
	{"future version", `{"version":2,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["a.d3l"]}`, "version 2"},
	{"other algo", `{"version":1,"shards":1,"placement":{"algo":"ring-x","vnodes":64},"snapshots":["a.d3l"]}`, "ring-x"},
	{"zero vnodes", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":0},"snapshots":["a.d3l"]}`, "vnodes"},
	{"other vnodes", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":128},"snapshots":["a.d3l"]}`, "vnodes"},
	{"huge vnodes", `{"version":1,"shards":2,"placement":{"algo":"ring-fnv1a","vnodes":4611686018427387904},"snapshots":["a.d3l","b.d3l"]}`, "vnodes"},
	{"no shards", `{"version":1,"shards":0,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":[]}`, "snapshots for"},
	{"short list", `{"version":1,"shards":2,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["a.d3l"]}`, "snapshots for"},
	{"parent dir", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["../x.d3l"]}`, "plain file name"},
	{"absolute", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["/etc/x.d3l"]}`, "plain file name"},
	{"subdir", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["sub/x.d3l"]}`, "plain file name"},
	{"backslash", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["..\\x.d3l"]}`, "plain file name"},
	{"empty name", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":[""]}`, "plain file name"},
	{"dot", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["."]}`, "plain file name"},
	{"dotdot", `{"version":1,"shards":1,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":[".."]}`, "plain file name"},
	{"twice", `{"version":1,"shards":2,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["a.d3l","a.d3l"]}`, "twice"},
}

// validManifest is what WriteSet writes for two shards.
const validManifest = `{"version":1,"shards":2,"placement":{"algo":"ring-fnv1a","vnodes":64},"snapshots":["shard-000.d3l","shard-001.d3l"]}`

func readManifestBytes(t *testing.T, data []byte) (*Manifest, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), ManifestName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadManifest(path)
}

// TestReadManifestRefuses pins each refusal and its wording, and that
// the manifest WriteSet writes passes.
func TestReadManifestRefuses(t *testing.T) {
	if _, err := readManifestBytes(t, []byte(validManifest)); err != nil {
		t.Fatalf("valid manifest refused: %v", err)
	}
	for _, c := range manifestRefusals {
		_, err := readManifestBytes(t, []byte(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// FuzzReadManifest feeds ReadManifest arbitrary bytes: each input gives
// an error or a manifest that a participant can build its ring from and
// whose snapshots all lie in the manifest's directory, never a panic.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(validManifest))
	for _, c := range manifestRefusals {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readManifestBytes(t, data)
		if err != nil {
			return
		}
		if m.Version != manifestVersion || m.Placement != (PlacementSpec{Algo: placementAlgo, Vnodes: DefaultVnodes}) {
			t.Fatalf("accepted a foreign ring: %+v", m)
		}
		if m.Shards <= 0 || len(m.Snapshots) != m.Shards {
			t.Fatalf("accepted %d snapshots for %d shards", len(m.Snapshots), m.Shards)
		}
		seen := make(map[string]bool)
		for _, name := range m.Snapshots {
			if filepath.Base(name) != name || !filepath.IsLocal(name) || name == "." || seen[name] {
				t.Fatalf("accepted snapshot name %q in %q", name, m.Snapshots)
			}
			seen[name] = true
		}
		if _, err := NewPlacement(m.Shards); err != nil {
			t.Fatal(err)
		}
	})
}
