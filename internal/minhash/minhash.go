// Package minhash implements MinHash signatures (Broder, SEQUENCES 1997)
// over string sets, the locality-sensitive sketch D3L uses for its
// Jaccard-grounded evidence types (names, values, formats).
//
// A Signature summarises a set with k minimum hash values. The
// probability that two signatures agree at a given position equals the
// Jaccard similarity of the underlying sets, so the fraction of agreeing
// positions is an unbiased estimator of Jaccard similarity with standard
// error O(1/sqrt(k)).
//
// Slot width. Each minimum is taken over 61-bit permuted values, but a
// finished slot is only ever compared for equality (Similarity) or read
// for its low byte (lsh.Forest keys), so a Signature stores the low 32
// bits of each minimum: min first, then narrow. Equal minima stay equal;
// unequal ones collide with probability 2^-32, because the low bits of
// (a*x+b) mod 2^61-1 are uniform. Narrowing before the minimum, or
// drawing a 32-bit hash family, would instead pick different minima and
// so a different estimator.
package minhash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// DefaultSize is the signature width used throughout the paper's
// evaluation (Section V, footnote 5: "a MinHash size of 256").
const DefaultSize = 256

// mersennePrime is 2^61-1, used for universal hashing; see permute.
const mersennePrime = (1 << 61) - 1

// Hasher derives a family of k pairwise-independent hash permutations
// from a seed. It is immutable and safe for concurrent use.
type Hasher struct {
	size  int
	a     []uint64  // multipliers, odd, < mersennePrime
	b     []uint64  // offsets, < mersennePrime
	empty Signature // the empty set's signature, shared by EmptySignature
}

// NewHasher returns a Hasher producing signatures of the given width.
// The family is deterministic in seed, so signatures created by
// different processes with the same seed are comparable.
func NewHasher(size int, seed uint64) (*Hasher, error) {
	if size <= 0 {
		return nil, fmt.Errorf("minhash: signature size must be positive, got %d", size)
	}
	h := &Hasher{
		size:  size,
		a:     make([]uint64, size),
		b:     make([]uint64, size),
		empty: make(Signature, size),
	}
	for i := range h.empty {
		h.empty[i] = emptySlot
	}
	rng := splitMix64(seed)
	for i := 0; i < size; i++ {
		// Draw a in [1, p-1] and b in [0, p-1].
		a := rng() % (mersennePrime - 1)
		h.a[i] = a + 1
		h.b[i] = rng() % mersennePrime
	}
	return h, nil
}

// MustHasher is NewHasher for static configuration; it panics on a
// non-positive size.
func MustHasher(size int, seed uint64) *Hasher {
	h, err := NewHasher(size, seed)
	if err != nil {
		panic(err)
	}
	return h
}

// Size reports the signature width produced by the Hasher.
func (h *Hasher) Size() int { return h.size }

// Signature is a MinHash sketch of a set: per permutation, the low 32
// bits of the minimum permuted value (see the package comment). Slots
// are finished values — there is no way to fold further elements into a
// Signature, because the minimum of narrowed values is not the narrowed
// minimum.
type Signature []uint32

// emptySlot is every slot of the empty set's signature: what the
// accumulator's initial math.MaxUint64 narrows to.
const emptySlot = math.MaxUint32

// Empty reports whether the signature was computed from an empty set.
// Empty signatures have every slot at the maximum value.
func (s Signature) Empty() bool {
	for _, v := range s {
		if v != emptySlot {
			return false
		}
	}
	return true
}

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature {
	c := make(Signature, len(s))
	copy(c, s)
	return c
}

// EmptySignature returns the signature of the empty set (all slots
// maxed). Every call returns the same Hasher-owned slice, so any number
// of placeholders cost one signature; callers must not write to it.
func (h *Hasher) EmptySignature() Signature { return h.empty }

// baseHash maps an element to a 64-bit value below the Mersenne prime.
func baseHash(element string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(element)) // fnv never errors
	return f.Sum64() % mersennePrime
}

// permute is one universal hash function of the family: (a*x+b) mod p
// with p = 2^61-1, for a, b, x < p, as the canonical residue in [0, p).
// The 122-bit product comes from one 64×64 multiply and is reduced by
// Mersenne folding: 2^61 ≡ 1 (mod p), so a value's bits above the 61st
// can be added onto its low 61. The first fold (plus b) stays below
// 2^63, the second leaves at most p+3, and one conditional subtract
// finishes. The values are part of the snapshot format — signatures on
// disk are compared with signatures sketched at query time — so any
// replacement must be bit-identical (permuteReference and the committed
// golden sketch in the tests pin that).
func permute(a, b, x uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	s := (hi<<3 | lo>>61) + (lo & mersennePrime) + b
	s = s>>61 + s&mersennePrime
	if s >= mersennePrime {
		s -= mersennePrime
	}
	return s
}

// accumulator returns the running minima of an empty set, one 64-bit
// slot per permutation, in buf when the family fits it. Sketch and
// SketchSet hand it a DefaultSize stack array, so sketching allocates
// nothing but the Signature it returns.
func (h *Hasher) accumulator(buf []uint64) []uint64 {
	if h.size > len(buf) {
		buf = make([]uint64, h.size)
	}
	acc := buf[:h.size]
	for i := range acc {
		acc[i] = math.MaxUint64
	}
	return acc
}

// update folds a single element into the running minima.
func (h *Hasher) update(acc []uint64, element string) {
	x := baseHash(element)
	a, b := h.a[:len(acc)], h.b[:len(acc)]
	for i := range acc {
		if v := permute(a[i], b[i], x); v < acc[i] {
			acc[i] = v
		}
	}
}

// narrow finishes a sketch: the low 32 bits of each minimum. An
// untouched slot (math.MaxUint64) narrows to emptySlot.
func narrow(acc []uint64) Signature {
	s := make(Signature, len(acc))
	for i, v := range acc {
		s[i] = uint32(v)
	}
	return s
}

// Sketch computes the signature of a set given as a slice of elements.
// Duplicate elements are harmless (MinHash is a set operation).
func (h *Hasher) Sketch(elements []string) Signature {
	var buf [DefaultSize]uint64
	acc := h.accumulator(buf[:])
	for _, e := range elements {
		h.update(acc, e)
	}
	return narrow(acc)
}

// SketchSet computes the signature of a set given as a map.
func (h *Hasher) SketchSet(set map[string]struct{}) Signature {
	var buf [DefaultSize]uint64
	acc := h.accumulator(buf[:])
	for e := range set {
		h.update(acc, e)
	}
	return narrow(acc)
}

// ErrSizeMismatch reports signatures of different widths.
var ErrSizeMismatch = errors.New("minhash: signature sizes differ")

// Similarity estimates the Jaccard similarity of the sets underlying
// two signatures as the fraction of agreeing slots.
func Similarity(a, b Signature) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrSizeMismatch
	}
	if len(a) == 0 {
		return 0, errors.New("minhash: empty signatures")
	}
	// Re-slicing b to a's length lets the compiler elide the bounds
	// check on b[i]: this comparison loop is the innermost kernel of
	// every pair distance the query pipeline computes, and it must stay
	// branch-lean and allocation-free.
	b = b[:len(a)]
	equal := 0
	for i := range a {
		if a[i] == b[i] {
			equal++
		}
	}
	return float64(equal) / float64(len(a)), nil
}

// Distance estimates the Jaccard distance (1 - similarity).
func Distance(a, b Signature) (float64, error) {
	sim, err := Similarity(a, b)
	if err != nil {
		return 1, err
	}
	return 1 - sim, nil
}

// Bytes serialises the signature in little-endian order, 4 bytes per
// slot.
func (s Signature) Bytes() []byte {
	buf := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(buf[i*4:], v)
	}
	return buf
}

// FromBytes reconstructs a signature serialised by Bytes.
func FromBytes(buf []byte) (Signature, error) {
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("minhash: serialized signature length %d not a multiple of 4", len(buf))
	}
	s := make(Signature, len(buf)/4)
	for i := range s {
		s[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	return s, nil
}

// MarshalBinary implements encoding.BinaryMarshaler with the Bytes
// layout. The engine snapshot encodes signatures inline as raw uint32
// slices for speed; these methods exist for external tooling that
// wants the standard encoding interfaces (gob, caches, wire formats).
func (s Signature) MarshalBinary() ([]byte, error) { return s.Bytes(), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, the decode
// half of MarshalBinary.
func (s *Signature) UnmarshalBinary(buf []byte) error {
	sig, err := FromBytes(buf)
	if err != nil {
		return err
	}
	*s = sig
	return nil
}

// splitMix64 returns a deterministic 64-bit pseudo-random generator used
// to derive the hash family. SplitMix64 is the standard seeding PRNG for
// reproducible simulation (Steele et al.).
func splitMix64(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
