package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"d3l"
	"d3l/internal/experiments"
)

// TestIndexInfoAccountsForTheFile: index info reads the format version
// and the section sizes off the snapshot file, and those sizes, with the
// header, the trailer and each section's id and length, add up to the
// file's size: five sections in a version 4 file with the join graph,
// and a version 2 file's forests section, marked as not read.
func TestIndexInfoAccountsForTheFile(t *testing.T) {
	lake, target, err := experiments.Figure1Fixture()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A join query builds the SA-join graph, so all five sections are written.
	if _, err := engine.Query(context.Background(), target, d3l.WithK(2), d3l.WithJoins()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "figure1.d3l")
	if err := d3l.SaveFile(engine, path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"index", "info", "-index", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "format v4") {
		t.Fatalf("no format version in:\n%s", out.String())
	}
	// The signature table holds each distinct signature once: at least
	// the distinct names, and fewer than the attributes' three each.
	var entries int
	if i := strings.Index(out.String(), "signatures:"); i < 0 {
		t.Fatalf("no signature table line in:\n%s", out.String())
	} else if _, err := fmt.Sscanf(out.String()[i:], "signatures: %d table entries", &entries); err != nil {
		t.Fatalf("signature table line: %v\n%s", err, out.String())
	}
	// The distinct signature counts are the loaded engine's, which must
	// be the built engine's, and the figure 1 lake repeats its formats.
	n, v, f := engine.DistinctSignatures()
	want := fmt.Sprintf("attributes:    %d (distinct signatures N %d / V %d / F %d)\n", engine.NumAttributes(), n, v, f)
	if !strings.Contains(out.String(), want) || n == 0 || v == 0 || f == 0 || f >= engine.NumAttributes() {
		t.Fatalf("no line %q in:\n%s", want, out.String())
	}
	if entries < n || entries >= 3*engine.NumAttributes() {
		t.Fatalf("%d signature table entries for %d distinct names and %d attributes", entries, n, engine.NumAttributes())
	}
	// The forest line is the loaded engine's tree 0 per forest: I_N and
	// I_F hold every attribute, and a tree holds at most one key per
	// distinct signature, so the figure 1 lake's repeated formats show.
	var ent, keys [4]int
	if i := strings.Index(out.String(), "forests:"); i < 0 {
		t.Fatalf("no forests line in:\n%s", out.String())
	} else if _, err := fmt.Sscanf(out.String()[i:], "forests: N %d/%d  V %d/%d  F %d/%d  E %d/%d (entries/keys)",
		&ent[0], &keys[0], &ent[1], &keys[1], &ent[2], &keys[2], &ent[3], &keys[3]); err != nil {
		t.Fatalf("forests line: %v\n%s", err, out.String())
	}
	if wantEnt, wantKeys := engine.ForestShapes(); ent != wantEnt || keys != wantKeys {
		t.Fatalf("forests line %v/%v, the built engine's %v/%v", ent, keys, wantEnt, wantKeys)
	}
	if ent[0] != engine.NumAttributes() || ent[2] != engine.NumAttributes() || keys[0] == 0 || keys[0] > n || keys[2] == 0 || keys[2] > f {
		t.Fatalf("forests N %d/%d, F %d/%d for %d attributes over %d names and %d formats", ent[0], keys[0], ent[2], keys[2], engine.NumAttributes(), n, f)
	}
	for i := range ent {
		if keys[i] > ent[i] {
			t.Fatalf("forest %d: %d keys over %d entries", i, keys[i], ent[i])
		}
	}
	// The load rebuilt the forests, and says how long that took.
	var load, rebuild string
	if i := strings.Index(out.String(), "load time:"); i < 0 {
		t.Fatalf("no load time line in:\n%s", out.String())
	} else if _, err := fmt.Sscanf(out.String()[i:], "load time: %s (forests rebuilt in %s", &load, &rebuild); err != nil {
		t.Fatalf("load time line: %v\n%s", err, out.String())
	}
	if _, err := time.ParseDuration(strings.TrimSuffix(rebuild, ")")); err != nil {
		t.Fatalf("forest rebuild time %q: %v", rebuild, err)
	}
	if sections := accountForSections(t, out.String(), st.Size()); sections != 5 ||
		!strings.Contains(out.String(), "section signatures") || strings.Contains(out.String(), "section forests") {
		t.Fatalf("%d sections in a version 4 file:\n%s", sections, out.String())
	}

	// A version 2 file still carries its forests, which the load does not
	// read.
	const v2Fixture = "../../internal/core/testdata/snapshot_v2.d3l"
	st, err = os.Stat(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"index", "info", "-index", v2Fixture}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if sections := accountForSections(t, out.String(), st.Size()); sections != 4 || !strings.Contains(out.String(), "format v2") ||
		!regexp.MustCompile(`section forests +\d+ bytes \(not read\)\n`).MatchString(out.String()) {
		t.Fatalf("%d sections in the version 2 fixture, or its forests section not marked as not read:\n%s", sections, out.String())
	}
}

// accountForSections fails unless the section sizes index info printed,
// with the header, the trailer and each section's id and length, add up
// to the file's size, and returns how many sections it printed.
func accountForSections(t *testing.T, out string, size int64) int {
	t.Helper()
	const headerAndTrailer, perSection = 8 + 4 + 4, 4 + 8
	total, sections := int64(headerAndTrailer), 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "section" {
			continue
		}
		n, err := strconv.ParseInt(fields[slices.Index(fields, "bytes")-1], 10, 64)
		if err != nil {
			t.Fatalf("section line %q: %v", line, err)
		}
		total += perSection + n
		sections++
	}
	if total != size {
		t.Fatalf("%d sections account for %d bytes of a %d-byte file:\n%s", sections, total, size, out)
	}
	return sections
}

// TestIndexBuildIsDeterministic: a snapshot is a pure function of the
// lake, so index builds of one directory at different -workers give
// identical files, monolithic and sharded alike.
func TestIndexBuildIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	lake := filepath.Join(dir, "lake")
	mustRun(t, "generate", "-kind", "synthetic", "-out", lake, "-tables", "20", "-seed", "7")
	for _, shards := range []string{"1", "2"} {
		var first map[string][]byte
		for _, workers := range []string{"1", "3"} {
			out := filepath.Join(dir, "shards"+shards+"-workers"+workers)
			mustRun(t, "index", "build", "-dir", lake, "-out", out, "-workers", workers, "-shards", shards)
			// A sharded build writes a directory: its files by name.
			files, names := map[string][]byte{}, []string{""}
			if shards != "1" {
				entries, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				names = names[:0]
				for _, e := range entries {
					names = append(names, e.Name())
				}
			}
			for _, name := range names {
				data, err := os.ReadFile(filepath.Join(out, name))
				if err != nil {
					t.Fatal(err)
				}
				files[name] = data
			}
			if first == nil {
				first = files
				continue
			}
			if len(files) != len(first) {
				t.Fatalf("-shards %s: %d files at -workers 1, %d at -workers %s", shards, len(first), len(files), workers)
			}
			for name, data := range files {
				if !bytes.Equal(data, first[name]) {
					t.Fatalf("-shards %s: %q differs between -workers 1 and -workers %s", shards, name, workers)
				}
			}
		}
	}
}
