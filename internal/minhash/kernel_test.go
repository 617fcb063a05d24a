package minhash

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// defaultSeed is core.DefaultOptions().Seed: the hash family every
// snapshot built with default options was sketched under.
const defaultSeed = 0x9e3779b97f4a7c15

// permuteReference is the permutation kernel every snapshot on disk was
// sketched with, retired from the package and kept as the oracle.
func permuteReference(a, b, x uint64) uint64 {
	return (mulmod(a, x) + b) % mersennePrime
}

// mulmod computes (a*b) mod (2^61-1) without overflow by splitting the
// operands into 31-bit halves. a, b < 2^61.
func mulmod(a, b uint64) uint64 {
	// Split a into high and low 31/30-bit halves: a = ah*2^31 + al.
	const half = 1 << 31
	ah, al := a/half, a%half
	bh, bl := b/half, b%half
	// a*b = ah*bh*2^62 + (ah*bl+al*bh)*2^31 + al*bl
	// Reduce each term mod 2^61-1, using 2^61 ≡ 1, so 2^62 ≡ 2.
	t1 := (ah * bh % mersennePrime) * 2 % mersennePrime
	mid := (ah*bl + al*bh) % mersennePrime
	// mid*2^31 = mh*2^61 + ml*2^31 ≡ mh + ml*2^31 (mod p) with mid split
	// at bit 30; ml < 2^30 so ml<<31 < 2^61, no overflow.
	mh, ml := mid/(1<<30), mid%(1<<30)
	t2 := (mh + ml<<31) % mersennePrime
	t3 := (al * bl) % mersennePrime
	return (t1 + t2 + t3) % mersennePrime
}

// TestPermuteMatchesReference pins the one-multiply kernel to the
// retired one bit for bit: every (a, b) of the default hasher against
// the boundary inputs and 10^5 seeded ones, plus the extreme multipliers
// and offsets no seeded family is likely to draw.
func TestPermuteMatchesReference(t *testing.T) {
	const p = mersennePrime
	xs := []uint64{0, 1, 2, p - 2, p - 1, 1 << 60}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 100000; i++ {
		xs = append(xs, rng.Uint64()%p)
	}
	check := func(a, b uint64, xs []uint64) {
		t.Helper()
		for _, x := range xs {
			got, want := permute(a, b, x), permuteReference(a, b, x)
			if got != want || got >= p {
				t.Fatalf("permute(a=%d, b=%d, x=%d) = %d, reference %d", a, b, x, got, want)
			}
		}
	}
	h := MustHasher(DefaultSize, defaultSeed)
	for i := range h.a {
		check(h.a[i], h.b[i], xs)
	}
	for _, a := range []uint64{1, p - 1} {
		for _, b := range []uint64{0, p - 1} {
			check(a, b, xs)
		}
	}
}

// TestSketchGoldenDefaultSeed compares the sketch of a fixed token set
// under the default hash family with the committed bytes the retired
// kernel produced. The file holds the 64-bit minima (8 bytes a slot,
// little-endian) as they were before signatures stored 32-bit slots, so
// a slot must equal the low half of its golden minimum and the wide
// accumulator the whole of it. A kernel (or base-hash, or
// family-derivation) change that moves one bit would orphan every
// snapshot on disk: their signatures would stop matching targets
// sketched at query time. Such a change needs a snapshot format
// version, not a new golden.
func TestSketchGoldenDefaultSeed(t *testing.T) {
	tokens := make([]string, 50)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("token-%02d", i)
	}
	file, err := os.ReadFile("testdata/sketch_default_seed.hex")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(file)))
	if err != nil || len(golden) != 8*DefaultSize {
		t.Fatalf("testdata/sketch_default_seed.hex: %d bytes, err %v", len(golden), err)
	}
	h := MustHasher(DefaultSize, defaultSeed)
	got, wide := h.Sketch(tokens), sketchWide(h, tokens)
	for i := range got {
		want := binary.LittleEndian.Uint64(golden[8*i:])
		if wide[i] != want || got[i] != uint32(want) {
			t.Fatalf("slot %d: minimum %#x, signature %#x, golden minimum %#x: on-disk snapshots would be orphaned", i, wide[i], got[i], want)
		}
	}
}

// sketchWide is Sketch without the final narrowing: the 61-bit minima
// themselves, the reference the stored 32-bit slots are judged against.
func sketchWide(h *Hasher, elements []string) []uint64 {
	acc := h.accumulator(nil)
	for _, e := range elements {
		h.update(acc, e)
	}
	return acc
}

// agreeing counts the slots two equally long sketches share.
func agreeing[T comparable](a, b []T) int {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}

// TestNarrowedSlotsAgreeLikeWideMinima is the contract the 32-bit slot
// width rests on: over seeded random set pairs spanning Jaccard 0…1,
// two signatures agree in exactly the slots where the 61-bit minima
// agree, so every Similarity — and through it every ranking — is what
// the wide signatures gave. (A false agreement has probability 2^-32 a
// slot; the seeds here are fixed, so the test is deterministic.)
func TestNarrowedSlotsAgreeLikeWideMinima(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, size := range []int{16, DefaultSize, DefaultSize + 64} {
		h := MustHasher(size, uint64(size)*7919)
		for trial := 0; trial <= 40; trial++ {
			n := 1 + rng.Intn(120)
			shared := n * trial / 40
			var a, b []string
			for i := 0; i < n; i++ {
				tok := fmt.Sprintf("t%d-%d", trial, i)
				if i < shared {
					a, b = append(a, tok), append(b, tok)
				} else {
					a, b = append(a, "a"+tok), append(b, "b"+tok)
				}
			}
			sa, sb := h.Sketch(a), h.Sketch(b)
			want := agreeing(sketchWide(h, a), sketchWide(h, b))
			if got := agreeing(sa, sb); got != want {
				t.Fatalf("size %d, %d of %d shared: %d narrowed slots agree, %d wide minima do", size, shared, n, got, want)
			}
			sim, err := Similarity(sa, sb)
			if err != nil || sim != float64(want)/float64(size) {
				t.Fatalf("size %d, %d of %d shared: Similarity %v (err %v), wide minima give %v", size, shared, n, sim, err, float64(want)/float64(size))
			}
			if shared == n && sim != 1 {
				t.Fatalf("identical sets: similarity %v", sim)
			}
		}
	}
	// The empty set: untouched minima narrow to the Empty sentinel, and
	// agree with nothing a non-empty set produced.
	h := MustHasher(DefaultSize, defaultSeed)
	empty, some := h.Sketch(nil), h.Sketch([]string{"x", "y"})
	if !empty.Empty() || agreeing(empty, h.EmptySignature()) != DefaultSize {
		t.Fatal("empty set does not narrow to the empty signature")
	}
	if got, want := agreeing(empty, some), agreeing(sketchWide(h, nil), sketchWide(h, []string{"x", "y"})); got != want || want != 0 {
		t.Fatalf("empty vs non-empty: %d narrowed slots agree, %d wide", got, want)
	}
	if _, err := Similarity(empty, MustHasher(64, defaultSeed).Sketch(nil)); err != ErrSizeMismatch {
		t.Fatalf("mismatched widths: %v, want ErrSizeMismatch", err)
	}
}

// TestSketchAllocatesOnlyTheSignature pins the accumulator to the stack
// for families up to DefaultSize: one allocation, the signature.
func TestSketchAllocatesOnlyTheSignature(t *testing.T) {
	h := MustHasher(DefaultSize, defaultSeed)
	elements := []string{"a", "b", "c"}
	set := map[string]struct{}{"a": {}, "b": {}}
	if n := testing.AllocsPerRun(100, func() { h.Sketch(elements) }); n != 1 {
		t.Fatalf("Sketch: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.SketchSet(set) }); n != 1 {
		t.Fatalf("SketchSet: %v allocations, want 1", n)
	}
}
