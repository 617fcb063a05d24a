package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"d3l"
	"d3l/internal/persist"
)

// ManifestName is the file `d3l index build -shards N` writes next to
// the per-shard snapshots, and the file `d3l serve -shards N -index`
// loads a set from.
const ManifestName = "manifest.json"

// manifestVersion guards the on-disk layout; bump on incompatible
// changes.
const manifestVersion = 1

// placementAlgo names the one ring construction this package defines.
// A manifest naming anything else is from a future incompatible
// build and must be rejected, not misrouted.
const placementAlgo = "ring-fnv1a"

// Manifest describes a sharded snapshot directory: which snapshot file
// holds which shard, and the placement parameters every participant
// must rebuild the identical ring from. Every participant builds its
// ring from the shard count alone (NewPlacement), so a manifest naming
// another ring is refused rather than loaded onto shards its owner
// lookups would not match.
type Manifest struct {
	Version   int           `json:"version"`
	Shards    int           `json:"shards"`
	Placement PlacementSpec `json:"placement"`
	// Snapshots holds the per-shard snapshot filenames, indexed by
	// shard ordinal: distinct plain names in the manifest's directory.
	Snapshots []string `json:"snapshots"`
}

// PlacementSpec pins the ring construction.
type PlacementSpec struct {
	Algo   string `json:"algo"`
	Vnodes int    `json:"vnodes"`
}

// WriteSet snapshots every shard of a set into dir (created if
// missing) as shard-NNN.d3l plus a manifest, each file written through
// persist.WriteFile: it lands under its final name only after a full,
// synced write, and a failed write leaves no temporary file. The set is
// replaced file by file, the manifest last, not as a whole.
func WriteSet(s *Set, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := Manifest{
		Version: manifestVersion,
		Shards:  s.NumShards(),
		Placement: PlacementSpec{
			Algo:   placementAlgo,
			Vnodes: DefaultVnodes,
		},
		Snapshots: make([]string, s.NumShards()),
	}
	for i := 0; i < s.NumShards(); i++ {
		name := fmt.Sprintf("shard-%03d.d3l", i)
		if err := d3l.SaveFile(s.Shard(i), filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		m.Snapshots[i] = name
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFile(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest %s has version %d, this build reads %d", path, m.Version, manifestVersion)
	}
	if m.Placement.Algo != placementAlgo {
		return nil, fmt.Errorf("shard: manifest %s uses placement %q, this build implements %q", path, m.Placement.Algo, placementAlgo)
	}
	if m.Placement.Vnodes != DefaultVnodes {
		return nil, fmt.Errorf("shard: manifest %s has %d vnodes per shard, this build places tables with %d", path, m.Placement.Vnodes, DefaultVnodes)
	}
	if m.Shards <= 0 || len(m.Snapshots) != m.Shards {
		return nil, fmt.Errorf("shard: manifest %s lists %d snapshots for %d shards", path, len(m.Snapshots), m.Shards)
	}
	seen := make(map[string]bool, len(m.Snapshots))
	for i, name := range m.Snapshots {
		if !filepath.IsLocal(name) || strings.ContainsAny(name, `/\`) || name == "." {
			return nil, fmt.Errorf("shard: manifest %s names snapshot %d %q, which is not a plain file name in its directory", path, i, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: manifest %s names snapshot %q twice", path, name)
		}
		seen[name] = true
	}
	return &m, nil
}

// LoadSet reconstructs a Set from a manifest written by WriteSet, with
// every shard's parallelism set to workers (0 = GOMAXPROCS); snapshots
// carry none, as it is a property of the serving host.
func LoadSet(manifestPath string, workers int) (*Set, error) {
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(manifestPath)
	place, err := NewPlacement(m.Shards)
	if err != nil {
		return nil, err
	}
	shards := make([]*d3l.Engine, m.Shards)
	for i, name := range m.Snapshots {
		e, err := d3l.LoadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", i, name, err)
		}
		if err := e.SetParallelism(workers); err != nil {
			return nil, err
		}
		shards[i] = e
	}
	return NewSet(shards, place)
}
