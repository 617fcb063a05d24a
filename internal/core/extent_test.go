package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"d3l/internal/persist"
)

// extentBytes is appendExtent's encoding of vs.
func extentBytes(vs []float64) []byte {
	var b persist.Buffer
	appendExtent(&b, vs, codeExtent(vs))
	return payloadOf(&b)
}

// extentReader returns a Reader over exactly data.
func extentReader(t testing.TB, data []byte) *persist.Reader {
	t.Helper()
	r, err := persist.OpenSealed(sealShardBody(slices.Clone(data)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameFloatBits reports whether a and b hold the same float64s bit for bit.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkExtentRoundTrip fails unless the sorted extent vs decodes from its
// encoding bit for bit with nothing left over, re-encodes to the same
// bytes, and, when scaled, at the smallest scale that fits. It returns
// the scale, or -1 for the raw form.
func checkExtentRoundTrip(t testing.TB, vs []float64) int {
	t.Helper()
	data := extentBytes(vs)
	r := extentReader(t, data)
	got, err := decodeExtent(r)
	if err != nil {
		t.Fatalf("%v: %v", vs, err)
	}
	if !sameFloatBits(got, vs) || r.Remaining() != 0 {
		t.Fatalf("%v decoded as %v, %d bytes left", vs, got, r.Remaining())
	}
	if again := extentBytes(got); !bytes.Equal(again, data) {
		t.Fatalf("%v: re-encoding changed the bytes", vs)
	}
	mark := codeExtent(vs)
	if mark == extentRaw {
		return -1
	}
	d := int(mark)
	for smaller := range d {
		if scalesAt(vs, smaller) {
			t.Fatalf("%v: scale %d chosen, %d fits", vs, d, smaller)
		}
	}
	return d
}

// TestExtentCodingEdges: integers and short decimals take the scaled form
// at the smallest scale that reproduces them; values no scale
// reproduces bit for bit — -0, NaN, ±Inf, subnormals, 2^53 and past it,
// 0.1 + 0.2 — send their extent to the raw form; either way the extent
// decodes bit for bit.
func TestExtentCodingEdges(t *testing.T) {
	const raw = -1
	p53 := math.Exp2(53)
	tenth, fifth := 0.1, 0.2 // added at run time: constants add exactly
	for _, c := range []struct {
		what  string
		vs    []float64
		scale int
	}{
		{"empty", nil, 0},
		{"integers", []float64{-7, 0, 3, 3, 1000}, 0},
		{"two decimals", []float64{0.25, 1.5, 15530.75}, 2},
		{"one decimal", []float64{0.1, 0.2, 0.3}, 1},
		{"three decimals", []float64{123.456}, 3},
		{"1e-18", []float64{1e-18}, 18},
		{"2^53 - 1 both ways", []float64{-(p53 - 1), p53 - 1}, 0},
		{"2^53", []float64{p53}, raw},
		{"2^53 + 2", []float64{p53 + 2}, raw},
		{"-2^53", []float64{-p53}, raw},
		{"-0", []float64{math.Copysign(0, -1)}, raw},
		{"-0 beside integers", []float64{math.Copysign(0, -1), 1, 2}, raw},
		{"+0", []float64{0}, 0},
		{"NaN", []float64{math.NaN(), 1}, raw},
		{"+Inf", []float64{1, math.Inf(1)}, raw},
		{"-Inf", []float64{math.Inf(-1), 1}, raw},
		{"smallest subnormal", []float64{math.SmallestNonzeroFloat64}, raw},
		{"0.1 + 0.2", []float64{tenth + fifth}, raw},
		{"1/3, whose shortest decimal has 16 digits", []float64{1.0 / 3}, 16},
		{"huge", []float64{math.MaxFloat64}, raw},
	} {
		if !sort.Float64sAreSorted(c.vs) {
			t.Fatalf("%s: the extent must be sorted", c.what)
		}
		if got := checkExtentRoundTrip(t, c.vs); len(c.vs) > 0 && got != c.scale {
			t.Errorf("%s: scale %d, want %d (-1: raw)", c.what, got, c.scale)
		}
	}
}

// FuzzExtentCodec holds the extent codec to its two contracts. The input
// read as float64s and sorted round-trips bit for bit, at the smallest
// scale that fits, to canonical bytes (checkExtentRoundTrip). The input
// read as an encoded extent either fails with ErrCorrupt (ErrTruncated
// when the bytes end inside it) or decodes to a sorted extent that
// round-trips in turn; it never panics.
func FuzzExtentCodec(f *testing.F) {
	tenth, fifth := 0.1, 0.2
	for _, vs := range [][]float64{
		{1, 2, 3}, {0.25, 1.5}, {-(1<<53 - 1), 1<<53 - 1}, {math.Copysign(0, -1)}, {math.NaN(), math.Inf(1)},
		{tenth + fifth}, {5e-324}, {1e-18, 2e-18},
	} {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
		f.Add(extentBytes(vs))
	}
	f.Add([]byte{2, extentRaw, 1})
	f.Add([]byte{2, maxExtentScale + 1, 0, 1})
	f.Add(append(binary.AppendUvarint([]byte{2, 0}, 2*(1<<53-1)), 1))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []float64
		for p := data; len(p) >= 8; p = p[8:] {
			vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
		sort.Float64s(vs)
		checkExtentRoundTrip(t, vs)

		got, err := decodeExtent(extentReader(t, data))
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) && !errors.Is(err, persist.ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if !sort.Float64sAreSorted(got) {
			t.Fatalf("decoded an unsorted extent %v", got)
		}
		checkExtentRoundTrip(t, got)
	})
}
