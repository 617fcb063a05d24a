package core

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"d3l/internal/persist"
)

// codecRoundTrip pushes one profile, which holds no MinHash signature,
// through the snapshot codec: file it as an engine's record, encode it
// into a section beside an empty signature table, re-decode through the
// public envelope (the only way to build a persist.Reader from outside
// the persist package) and read the decoded record back as a profile.
func codecRoundTrip(t *testing.T, p *Profile) Profile {
	t.Helper()
	const testSection = 0x7e57
	src := Engine{opts: testOptions()}
	src.push(p)
	var buf bytes.Buffer
	enc := persist.NewEncoder(&buf)
	enc.Section(persist.SecSigs, func(b *persist.Buffer) { b.Uvarint(0) })
	enc.Section(testSection, func(b *persist.Buffer) {
		src.encodeProfile(b, 0, []uint32{0}, codeExtent(p.NumExtent))
	})
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := persist.NewDecoder(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	e := Engine{opts: src.opts}
	if rs, err := dec.MustSection(persist.SecSigs); err != nil {
		t.Fatal(err)
	} else if err := e.sigs.load(rs); err != nil {
		t.Fatal(err)
	}
	r, ok := dec.Section(testSection)
	if !ok {
		t.Fatal("test section missing")
	}
	if err := e.decodeProfile(r); err != nil {
		t.Fatal(err)
	}
	return e.profileOf(0)
}

// TestDecodeProfileResortsCorruptedExtent is the regression test for
// the Profile.NumExtent sorted-ascending invariant at the snapshot
// boundary: a profile whose extent arrives in corrupted (unsorted)
// order — bytes damaged in a way the checksum did not catch, or a
// hostile writer — must come out of decodeProfile sorted, with
// the same multiset of values. The allocation-free KS path reads the
// extent as sorted without checking, so a decode that preserved the
// corrupted order would silently produce wrong domain distances.
func TestDecodeProfileResortsCorruptedExtent(t *testing.T) {
	in := Profile{
		Ref:       AttrRef{TableID: 0, Column: 2},
		Name:      "amount",
		Numeric:   true,
		EZero:     true,
		NumExtent: []float64{31.5, -2, 7, 7, 0.25, -2000, 99},
	}
	if sort.Float64sAreSorted(in.NumExtent) {
		t.Fatal("test extent must start unsorted")
	}
	out := codecRoundTrip(t, &in)
	if !sort.Float64sAreSorted(out.NumExtent) {
		t.Fatalf("decoded extent still unsorted: %v", out.NumExtent)
	}
	want := append([]float64(nil), in.NumExtent...)
	sort.Float64s(want)
	if !slices.Equal(out.NumExtent, want) {
		t.Fatalf("decoded extent %v, want the sorted multiset %v", out.NumExtent, want)
	}
	// An already-sorted extent round-trips untouched.
	again := codecRoundTrip(t, &out)
	if !slices.Equal(again.NumExtent, out.NumExtent) {
		t.Fatalf("sorted extent did not round-trip: %v vs %v", again.NumExtent, out.NumExtent)
	}
}

// TestAssertSortedExtent exercises the debug assertion in whichever
// build mode the test runs under: a no-op without the d3ldebug tag, a
// panic naming the boundary with it (go test -tags d3ldebug).
func TestAssertSortedExtent(t *testing.T) {
	bad, good := []float64{2, 1}, []float64{1, 2}
	assertSortedExtent(good, "y", "test") // never panics
	if !debugAsserts {
		assertSortedExtent(bad, "x", "test") // compiled out: no panic
		return
	}
	defer func() {
		if recover() == nil {
			t.Fatal("d3ldebug build did not panic on an unsorted extent")
		}
	}()
	assertSortedExtent(bad, "x", "test")
}
