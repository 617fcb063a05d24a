package core

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"d3l/internal/minhash"
	"d3l/internal/persist"
)

// codecRoundTrip pushes one profile through the snapshot codec: encode
// into a section, re-decode through the public envelope (the only way
// to build a persist.Reader from outside the persist package).
func codecRoundTrip(t *testing.T, p *Profile) Profile {
	t.Helper()
	const testSection = 0x7e57
	enc := persist.NewEncoder()
	encodeProfile(enc.Begin(testSection), p)
	enc.End()
	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := persist.NewDecoder(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := dec.Section(testSection)
	if !ok {
		t.Fatal("test section missing")
	}
	var out Profile
	if err := decodeProfile(r, &out, dec.Version(), &[3]minhash.Signature{}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeProfileResortsCorruptedExtent is the regression test for
// the Profile.NumExtent sorted-ascending invariant at the snapshot
// boundary: a profile whose extent arrives in corrupted (unsorted)
// order — a pre-invariant snapshot, or bytes damaged in a way the
// checksum did not catch — must come out of decodeProfile sorted, with
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
	bad := &Profile{Name: "x", NumExtent: []float64{2, 1}}
	good := &Profile{Name: "y", NumExtent: []float64{1, 2}}
	assertSortedExtent(good, "test") // never panics
	if !debugAsserts {
		assertSortedExtent(bad, "test") // compiled out: no panic
		return
	}
	defer func() {
		if recover() == nil {
			t.Fatal("d3ldebug build did not panic on an unsorted extent")
		}
	}()
	assertSortedExtent(bad, "test")
}
