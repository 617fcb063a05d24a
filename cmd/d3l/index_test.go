package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"d3l"
	"d3l/internal/experiments"
)

// TestIndexInfoAccountsForTheFile: index info reads the format version
// and the section sizes off the snapshot file, and those sizes, with the
// header, the trailer and each section's id and length, add up to the
// file's size.
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
	if !strings.Contains(out.String(), "format v2") {
		t.Fatalf("no format version in:\n%s", out.String())
	}
	const headerAndTrailer, perSection = 8 + 4 + 4, 4 + 8
	total, sections := int64(headerAndTrailer), 0
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "section" {
			continue
		}
		n, err := strconv.ParseInt(fields[len(fields)-2], 10, 64)
		if err != nil {
			t.Fatalf("section line %q: %v", line, err)
		}
		total += perSection + n
		sections++
	}
	if sections != 5 || total != st.Size() {
		t.Fatalf("%d sections account for %d bytes of a %d-byte file:\n%s", sections, total, st.Size(), out.String())
	}
}
