package minhash

import (
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
// kernel produced. A kernel (or base-hash, or family-derivation) change
// that moves one bit would orphan every snapshot on disk: their
// signatures would stop matching targets sketched at query time. Such a
// change needs a snapshot format version, not a new golden.
func TestSketchGoldenDefaultSeed(t *testing.T) {
	tokens := make([]string, 50)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("token-%02d", i)
	}
	got := hex.EncodeToString(MustHasher(DefaultSize, defaultSeed).Sketch(tokens).Bytes())
	want, err := os.ReadFile("testdata/sketch_default_seed.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatal("Sketch under the default seed no longer matches testdata/sketch_default_seed.hex: on-disk snapshots would be orphaned")
	}
}
