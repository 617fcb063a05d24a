package core

import (
	"fmt"
	"math"
	"sort"

	"d3l/internal/persist"
)

// This file is the snapshot coding of a numeric extent. Lake numbers are mostly integers or short decimals, and such a
// value v is exactly float64(k)/10^d for a small integer k: the scaled
// form stores d once and the ks as varints, the sorted extent making
// every k after the first a non-negative step from the one before. A
// value that no such pair reproduces bit for bit (-0, NaN, ±Inf, most
// binary fractions) sends its whole extent to the raw form, eight bytes
// a value, so the coding is lossless whatever the extent holds.

// maxExtentScale is the largest decimal scale of a scaled extent, and
// extentRaw the marker that takes a scale's place before a raw one.
const (
	maxExtentScale = 18
	extentRaw      = 0xff
)

// maxScaled bounds |k|: below 2^53 every integer is a float64, so the
// division that decodes k is exact in its operand.
const maxScaled = 1 << 53

// pow10[d] is 10^d, exact as a float64 for every d it holds.
var pow10 = func() (p [maxExtentScale + 1]float64) {
	p[0] = 1
	for d := 1; d <= maxExtentScale; d++ {
		p[d] = p[d-1] * 10
	}
	return p
}()

// scaled returns k = round(v·10^d) and whether float64(k)/10^d is v bit
// for bit with |k| < 2^53. At scale 0 the division by 1 is skipped: most
// extents are integers, and the division is most of a save's cost.
func scaled(v float64, d int) (int64, bool) {
	x := math.Round(v * pow10[d])
	if !(math.Abs(x) < maxScaled) {
		return 0, false
	}
	k := int64(x)
	back := float64(k) // through the integer, as a decode goes: -0 comes back +0
	if d > 0 {
		back /= pow10[d]
	}
	return k, math.Float64bits(back) == math.Float64bits(v)
}

// scalesAt reports whether vs, which is not empty, scales exactly at d
// into ks that never decrease.
func scalesAt(vs []float64, d int) bool {
	var prev int64
	for i, v := range vs {
		k, ok := scaled(v, d)
		if !ok || (i > 0 && k < prev) {
			return false
		}
		prev = k
	}
	return true
}

// codeExtent chooses how vs, which is sorted, is written, and returns
// the byte appendExtent writes after its count: the smallest decimal
// scale at which every value is scaled exactly and the ks never
// decrease, or extentRaw when no scale up to maxExtentScale fits.
// Trying the scales in order keeps the choice a function of the values,
// so save → load → save is byte-identical. An empty extent writes no
// mark; its code is 0.
func codeExtent(vs []float64) uint8 {
	if len(vs) == 0 {
		return 0
	}
	for d := 0; d <= maxExtentScale; d++ {
		if scalesAt(vs, d) {
			return uint8(d)
		}
	}
	return extentRaw
}

// appendExtent writes vs, coded as mark (codeExtent(vs)): its length as
// a Uvarint, then for a non-empty extent either its scale, its first k
// as a Varint and each later k as a Uvarint step, or extentRaw and the
// values as float64s.
func appendExtent(b *persist.Buffer, vs []float64, mark uint8) {
	b.Uvarint(uint64(len(vs)))
	if len(vs) == 0 {
		return
	}
	b.U8(mark)
	if mark == extentRaw {
		for _, v := range vs {
			b.F64(v)
		}
		return
	}
	var prev int64
	for i, v := range vs {
		k, _ := scaled(v, int(mark))
		if i == 0 {
			b.Varint(k)
		} else {
			b.Uvarint(uint64(k - prev))
		}
		prev = k
	}
}

// decodeExtent reads an extent appendExtent wrote. A scaled extent
// decodes sorted by construction; a raw one is sorted if it arrives out
// of order, as a damaged or hostile file may deliver it, since the
// KS path reads every extent as sorted. A scale past maxExtentScale, or
// a k that reaches 2^53, is ErrCorrupt.
func decodeExtent(r *persist.Reader) ([]float64, error) {
	count := r.Uvarint()
	if err := r.Err(); err != nil || count == 0 {
		return nil, err
	}
	// Every value takes a byte at least, so a count the bytes left cannot
	// hold never sizes an allocation.
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: %d extent values declared in %d bytes", persist.ErrCorrupt, count, r.Remaining())
	}
	n := int(count)
	d := int(r.U8())
	if d == extentRaw {
		if n > r.Remaining()/8 {
			return nil, fmt.Errorf("%w: a raw extent of %d values in %d bytes", persist.ErrCorrupt, n, r.Remaining())
		}
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = r.F64()
		}
		if !sort.Float64sAreSorted(vs) {
			sort.Float64s(vs)
		}
		return vs, r.Err()
	}
	if d > maxExtentScale {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: extent scale %d", persist.ErrCorrupt, d)
	}
	vs := make([]float64, n)
	k := r.Varint()
	for i := range vs {
		if i > 0 {
			step := r.Uvarint()
			if step >= uint64(maxScaled-k) {
				k = maxScaled
			} else {
				k += int64(step)
			}
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if k <= -maxScaled || k >= maxScaled {
			return nil, fmt.Errorf("%w: extent value %d of %d scales to %d, past 2^53", persist.ErrCorrupt, i, n, k)
		}
		vs[i] = float64(k) / pow10[d]
	}
	return vs, nil
}

// ExtentCoding counts the non-empty numeric extents a snapshot of the
// engine writes scaled, by decimal scale (byScale[d]), and raw.
func (e *Engine) ExtentCoding() (byScale []int, raw int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	byScale = make([]int, maxExtentScale+1)
	for i := range e.attrs {
		vs := e.attrs[i].extent
		if len(vs) == 0 {
			continue
		}
		if mark := codeExtent(vs); mark == extentRaw {
			raw++
		} else {
			byScale[mark]++
		}
	}
	return byScale, raw
}
