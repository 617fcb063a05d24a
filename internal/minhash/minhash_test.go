package minhash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MustHasher is NewHasher for the tests' fixed sizes; it panics on a
// non-positive size.
func MustHasher(size int, seed uint64) *Hasher {
	h, err := NewHasher(size, seed)
	if err != nil {
		panic(err)
	}
	return h
}

// Distance is the Jaccard distance estimate 1 − Similarity.
func Distance(a, b Signature) (float64, error) {
	sim, err := Similarity(a, b)
	if err != nil {
		return 1, err
	}
	return 1 - sim, nil
}

func exactJaccard(a, b []string) float64 {
	sa := make(map[string]struct{}, len(a))
	for _, x := range a {
		sa[x] = struct{}{}
	}
	sb := make(map[string]struct{}, len(b))
	for _, x := range b {
		sb[x] = struct{}{}
	}
	inter := 0
	for x := range sa {
		if _, ok := sb[x]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func TestNewHasherRejectsBadSize(t *testing.T) {
	if _, err := NewHasher(0, 1); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewHasher(-5, 1); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestMustHasherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustHasher(0, 1)
}

func TestDeterminism(t *testing.T) {
	h1 := MustHasher(64, 42)
	h2 := MustHasher(64, 42)
	s1 := h1.Sketch([]string{"alpha", "beta", "gamma"})
	s2 := h2.Sketch([]string{"gamma", "alpha", "beta"})
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("signatures differ at slot %d: %d vs %d", i, s1[i], s2[i])
		}
	}
}

func TestSeedChangesFamily(t *testing.T) {
	a := MustHasher(64, 1).Sketch([]string{"alpha"})
	b := MustHasher(64, 2).Sketch([]string{"alpha"})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical hash families")
	}
}

func TestIdenticalSetsSimilarityOne(t *testing.T) {
	h := MustHasher(128, 7)
	s := h.Sketch([]string{"a", "b", "c", "d"})
	sim, err := Similarity(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 1 {
		t.Fatalf("self-similarity = %v, want 1", sim)
	}
}

func TestDisjointSetsLowSimilarity(t *testing.T) {
	h := MustHasher(256, 7)
	a := make([]string, 200)
	b := make([]string, 200)
	for i := range a {
		a[i] = "left-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i/26))
		b[i] = "right-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i/26))
	}
	sim, err := Similarity(h.Sketch(a), h.Sketch(b))
	if err != nil {
		t.Fatal(err)
	}
	if sim > 0.05 {
		t.Fatalf("disjoint sets estimated similarity %v, want near 0", sim)
	}
}

func TestEstimateTracksExactJaccard(t *testing.T) {
	h := MustHasher(256, 99)
	rng := rand.New(rand.NewSource(5))
	vocab := make([]string, 500)
	for i := range vocab {
		vocab[i] = "tok" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
	}
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(200)
		overlapFrac := rng.Float64()
		var a, b []string
		for i := 0; i < n; i++ {
			tok := vocab[rng.Intn(len(vocab))]
			a = append(a, tok)
			if rng.Float64() < overlapFrac {
				b = append(b, tok)
			} else {
				b = append(b, vocab[rng.Intn(len(vocab))])
			}
		}
		exact := exactJaccard(a, b)
		est, err := Similarity(h.Sketch(a), h.Sketch(b))
		if err != nil {
			t.Fatal(err)
		}
		// Standard error with 256 slots is sqrt(J(1-J)/256) <= 0.032; allow 4 sigma.
		if math.Abs(est-exact) > 0.13 {
			t.Fatalf("trial %d: estimate %v too far from exact %v", trial, est, exact)
		}
	}
}

func TestEstimateTracksExactJaccardProperty(t *testing.T) {
	h := MustHasher(256, 123)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		shared := rng.Intn(n)
		var a, b []string
		for i := 0; i < shared; i++ {
			tok := "s" + itoa(i) + "-" + itoa(int(seed%977))
			a = append(a, tok)
			b = append(b, tok)
		}
		for i := shared; i < n; i++ {
			a = append(a, "a"+itoa(i))
			b = append(b, "b"+itoa(i))
		}
		exact := exactJaccard(a, b)
		est, err := Similarity(h.Sketch(a), h.Sketch(b))
		if err != nil {
			return false
		}
		return math.Abs(est-exact) <= 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestSizeMismatch(t *testing.T) {
	a := MustHasher(64, 1).Sketch([]string{"a"})
	b := MustHasher(128, 1).Sketch([]string{"a"})
	if _, err := Similarity(a, b); err != ErrSizeMismatch {
		t.Fatalf("got %v, want ErrSizeMismatch", err)
	}
}

func TestEmptySignature(t *testing.T) {
	h := MustHasher(32, 1)
	if !h.EmptySignature().Empty() || !h.Sketch(nil).Empty() {
		t.Fatal("the empty set's signature should be Empty")
	}
	if len(h.EmptySignature()) != h.size {
		t.Fatalf("EmptySignature has %d slots, hasher %d", len(h.EmptySignature()), h.size)
	}
	if &h.EmptySignature()[0] != &h.EmptySignature()[0] {
		t.Fatal("EmptySignature should hand out one shared slice")
	}
	if h.Sketch([]string{"x"}).Empty() {
		t.Fatal("a non-empty set's signature should not be Empty")
	}
}

func TestDistanceComplementsSimilarity(t *testing.T) {
	h := MustHasher(128, 9)
	a := h.Sketch([]string{"p", "q", "r"})
	b := h.Sketch([]string{"q", "r", "s"})
	sim, _ := Similarity(a, b)
	dist, _ := Distance(a, b)
	if math.Abs(sim+dist-1) > 1e-12 {
		t.Fatalf("sim %v + dist %v != 1", sim, dist)
	}
}

// TestSketchIgnoresOrderAndDuplicates: a signature is a function of the
// set, so profiling may hand Sketch a tset in any order.
func TestSketchIgnoresOrderAndDuplicates(t *testing.T) {
	h := MustHasher(64, 5)
	s1 := h.Sketch([]string{"a", "b", "c"})
	s2 := h.Sketch([]string{"c", "a", "b", "a"})
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("Sketch depends on order or duplicates at slot %d", i)
		}
	}
}

func TestMulModAgainstBigBruteForce(t *testing.T) {
	// Verify the reference mulmod (kernel_test.go) against shift-and-add
	// arithmetic, so the oracle permute is compared to is itself checked.
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {mersennePrime - 1, 2}, {mersennePrime - 1, mersennePrime - 1},
		{123456789, 987654321}, {1 << 60, 3}, {(1 << 60) + 12345, (1 << 59) + 678},
	}
	for _, c := range cases {
		got := mulmod(c[0], c[1])
		want := bigMulMod(c[0], c[1])
		if got != want {
			t.Fatalf("mulmod(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// bigMulMod computes (a*b) mod p by repeated addition-doubling (slow but
// obviously correct for testing).
func bigMulMod(a, b uint64) uint64 {
	var res uint64
	a %= mersennePrime
	for b > 0 {
		if b&1 == 1 {
			res = (res + a) % mersennePrime
		}
		a = (a * 2) % mersennePrime
		b >>= 1
	}
	return res
}

func TestMulModProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= mersennePrime
		b %= mersennePrime
		return mulmod(a, b) == bigMulMod(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSketch256(b *testing.B) {
	h := MustHasher(256, 1)
	elements := make([]string, 100)
	for i := range elements {
		elements[i] = "element-" + itoa(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sketch(elements)
	}
}

func BenchmarkSimilarity256(b *testing.B) {
	h := MustHasher(256, 1)
	s1 := h.Sketch([]string{"a", "b", "c"})
	s2 := h.Sketch([]string{"b", "c", "d"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Similarity(s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}
