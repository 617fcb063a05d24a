package lsh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"d3l/internal/minhash"
)

// --- SimHash / random projections ---

func randomUnitVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	var norm float64
	for i := range v {
		v[i] = rng.NormFloat64()
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	return v
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return dot / math.Sqrt(na*nb)
}

func TestPlanesValidation(t *testing.T) {
	if _, err := NewPlanes(0, 10, 1); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := NewPlanes(10, 0, 1); err == nil {
		t.Fatal("expected error for nbits 0")
	}
	p := MustPlanes(8, 64, 1)
	if _, err := p.Sketch(make([]float64, 4)); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestSimHashDeterminism(t *testing.T) {
	p1 := MustPlanes(16, 128, 7)
	p2 := MustPlanes(16, 128, 7)
	v := randomUnitVec(rand.New(rand.NewSource(1)), 16)
	s1, err := p1.Sketch(v)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Sketch(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed, different sketches")
		}
	}
}

func TestSimHashCosineEstimate(t *testing.T) {
	const dim, nbits = 32, 512
	p := MustPlanes(dim, nbits, 42)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		a := randomUnitVec(rng, dim)
		b := make([]float64, dim)
		// Interpolate between a and an independent vector to sweep cosine.
		c := randomUnitVec(rng, dim)
		alpha := rng.Float64()
		for i := range b {
			b[i] = alpha*a[i] + (1-alpha)*c[i]
		}
		exact := cosine(a, b)
		sa, _ := p.Sketch(a)
		sb, _ := p.Sketch(b)
		est, err := CosineSimilarity(sa, sb, nbits)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-exact) > 0.2 {
			t.Fatalf("trial %d: cosine estimate %v too far from exact %v", trial, est, exact)
		}
	}
}

func TestSimHashIdenticalVectors(t *testing.T) {
	p := MustPlanes(8, 256, 3)
	v := randomUnitVec(rand.New(rand.NewSource(2)), 8)
	s, _ := p.Sketch(v)
	d, err := CosineDistance(s, s, 256)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("self cosine distance %v, want 0", d)
	}
}

func TestSimHashOppositeVectors(t *testing.T) {
	p := MustPlanes(8, 256, 3)
	v := randomUnitVec(rand.New(rand.NewSource(2)), 8)
	neg := make([]float64, len(v))
	for i := range v {
		neg[i] = -v[i]
	}
	sa, _ := p.Sketch(v)
	sb, _ := p.Sketch(neg)
	d, err := CosineDistance(sa, sb, 256)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 { // clamped from 2
		t.Fatalf("antipodal cosine distance %v, want clamp to 1", d)
	}
}

func TestCosineDistanceBoundsProperty(t *testing.T) {
	p := MustPlanes(8, 128, 5)
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_ = rng
		a := randomUnitVec(r, 8)
		b := randomUnitVec(r, 8)
		sa, _ := p.Sketch(a)
		sb, _ := p.Sketch(b)
		d, err := CosineDistance(sa, sb, 128)
		return err == nil && d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashValuesRoundTrip(t *testing.T) {
	sig := BitSignature{0x0123456789abcdef, 0xfedcba9876543210}
	vals := sig.HashValues()
	if len(vals) != 16 {
		t.Fatalf("got %d hash values, want 16", len(vals))
	}
	if vals[0] != 0xef || vals[7] != 0x01 || vals[8] != 0x10 {
		t.Fatalf("unexpected byte decomposition: %x", vals)
	}
	if len(sig.Bytes()) != 16 {
		t.Fatal("Bytes length mismatch")
	}
}

// --- Forest ---

func sketchFor(h *minhash.Hasher, tokens []string) []uint32 {
	return []uint32(h.Sketch(tokens))
}

func buildTokenSets(n, size int, rng *rand.Rand, vocabSize int) [][]string {
	sets := make([][]string, n)
	for i := range sets {
		s := make([]string, size)
		for j := range s {
			s[j] = "w" + itoa(rng.Intn(vocabSize))
		}
		sets[i] = s
	}
	return sets
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

func TestForestValidation(t *testing.T) {
	if _, err := NewForest(0, 4); err == nil {
		t.Fatal("expected error")
	}
	f := MustForest(4, 8)
	if err := f.Add(1, make([]uint32, 10)); err == nil {
		t.Fatal("expected short-signature error")
	}
	if _, err := f.Query(make([]uint32, 64), 5); err == nil {
		t.Fatal("expected query-before-index error")
	}
	f.Index()
	if err := f.Add(1, make([]uint32, 64)); err == nil {
		t.Fatal("expected add-after-index error")
	}
}

func TestForestFindsNearDuplicates(t *testing.T) {
	h := minhash.MustHasher(256, 11)
	f := MustForest(8, 32)
	rng := rand.New(rand.NewSource(4))
	base := buildTokenSets(50, 60, rng, 4000)
	for i, s := range base {
		if err := f.Add(int32(i), sketchFor(h, s)); err != nil {
			t.Fatal(err)
		}
	}
	f.Index()
	// Query with a near-duplicate of item 7 (90% same tokens).
	q := append([]string{}, base[7][:54]...)
	for i := 0; i < 6; i++ {
		q = append(q, "unique"+itoa(i))
	}
	got, err := f.Query(sketchFor(h, q), 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got {
		if id == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("near-duplicate of item 7 not retrieved; got %v", got)
	}
}

func TestForestQueryDescendsUntilEnough(t *testing.T) {
	h := minhash.MustHasher(256, 13)
	f := MustForest(8, 32)
	rng := rand.New(rand.NewSource(6))
	sets := buildTokenSets(200, 40, rng, 120) // overlapping vocabulary
	for i, s := range sets {
		if err := f.Add(int32(i), sketchFor(h, s)); err != nil {
			t.Fatal(err)
		}
	}
	f.Index()
	few, err := f.Query(sketchFor(h, sets[0]), 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := f.Query(sketchFor(h, sets[0]), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) < 50 {
		t.Fatalf("forest returned %d candidates, want >= 50 after descent", len(many))
	}
	if len(few) > len(many) {
		t.Fatalf("larger budget returned fewer candidates: %d vs %d", len(many), len(few))
	}
}

func TestForestCollectMinDepthMembership(t *testing.T) {
	h := minhash.MustHasher(256, 17)
	f := MustForest(8, 32)
	tokens := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	if err := f.Add(1, sketchFor(h, tokens)); err != nil {
		t.Fatal(err)
	}
	f.Index()
	// Identical set must match at full depth, in every tree.
	got, err := f.CollectMinDepth(sketchFor(h, tokens), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Fatalf("identical set not matched at full depth in all 8 trees: %v", got)
	}
}

func TestForestSpaceGrowsLinearly(t *testing.T) {
	h := minhash.MustHasher(256, 19)
	f := MustForest(8, 32)
	one := f.SpaceBytes()
	if one != 0 {
		t.Fatal("empty forest should report zero space")
	}
	for i := 0; i < 10; i++ {
		if err := f.Add(int32(i), sketchFor(h, []string{"t" + itoa(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 10 {
		t.Fatalf("Len = %d, want 10", f.Len())
	}
	perItem := 8 * (32 + 4) // 8 trees x (32 key bytes + 4 id bytes)
	shouldBe := int64(10 * perItem)
	if f.SpaceBytes() != shouldBe {
		t.Fatalf("SpaceBytes = %d, want %d", f.SpaceBytes(), shouldBe)
	}
}

// --- Banded ---

func TestBandedThresholdBehaviour(t *testing.T) {
	h := minhash.MustHasher(256, 23)
	bands, rows := OptimalParams(0.7, 256)
	if bands*rows != 256 {
		t.Fatalf("OptimalParams must tile the signature: %d*%d", bands, rows)
	}
	idx := MustBanded(bands, rows)
	rng := rand.New(rand.NewSource(8))
	// Item 0: near-duplicate pair; the rest random noise.
	base := buildTokenSets(1, 80, rng, 10000)[0]
	if err := idx.Add(0, sketchFor(h, base)); err != nil {
		t.Fatal(err)
	}
	noise := buildTokenSets(100, 80, rng, 1000000)
	for i, s := range noise {
		if err := idx.Add(int32(i+1), sketchFor(h, s)); err != nil {
			t.Fatal(err)
		}
	}
	q := append([]string{}, base[:76]...) // ~95% overlap
	q = append(q, "x1", "x2", "x3", "x4")
	got, err := idx.Query(sketchFor(h, q))
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	for _, id := range got {
		if id == 0 {
			foundDup = true
		}
	}
	if !foundDup {
		t.Fatal("banded LSH at threshold 0.7 missed a highly similar item")
	}
	if len(got) > 20 {
		t.Fatalf("banded LSH returned %d random-noise candidates", len(got))
	}
}

func TestOptimalParamsMonotone(t *testing.T) {
	// Higher thresholds should produce more rows per band (sharper curve).
	_, rLow := OptimalParams(0.2, 256)
	_, rHigh := OptimalParams(0.9, 256)
	if rHigh < rLow {
		t.Fatalf("rows at 0.9 (%d) < rows at 0.2 (%d)", rHigh, rLow)
	}
}

func TestBandedValidation(t *testing.T) {
	if _, err := NewBanded(0, 4); err == nil {
		t.Fatal("expected error")
	}
	b := MustBanded(4, 8)
	if err := b.Add(1, make([]uint32, 8)); err == nil {
		t.Fatal("expected short-signature error")
	}
	if _, err := b.Query(make([]uint32, 8)); err == nil {
		t.Fatal("expected short-signature error")
	}
	if b.Threshold() <= 0 || b.Threshold() >= 1 {
		t.Fatalf("threshold out of range: %v", b.Threshold())
	}
}

// --- Ensemble ---

func TestEnsemblePartitioning(t *testing.T) {
	h := minhash.MustHasher(256, 31)
	eb, err := NewEnsembleBuilder(0.7, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 120; i++ {
		size := 10 + rng.Intn(500)
		set := buildTokenSets(1, size, rng, 100000)[0]
		if err := eb.Add(int32(i), size, sketchFor(h, set)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e.Partitions() < 2 {
		t.Fatalf("expected multiple partitions, got %d", e.Partitions())
	}
	prevHi := -1
	for i := 0; i < e.Partitions(); i++ {
		lo, hi := e.PartitionBounds(i)
		if lo < prevHi {
			t.Fatalf("partition %d overlaps previous: lo %d < prevHi %d", i, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("partition %d has hi %d < lo %d", i, hi, lo)
		}
		prevHi = hi
	}
	if e.SpaceBytes() <= 0 {
		t.Fatal("ensemble space should be positive")
	}
}

func TestEnsembleFindsContainedSet(t *testing.T) {
	h := minhash.MustHasher(256, 37)
	eb, _ := NewEnsembleBuilder(0.6, 256, 4)
	big := make([]string, 300)
	for i := range big {
		big[i] = "member" + itoa(i)
	}
	if err := eb.Add(99, len(big), sketchFor(h, big)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		size := 20 + rng.Intn(400)
		set := buildTokenSets(1, size, rng, 1000000)[0]
		if err := eb.Add(int32(i), size, sketchFor(h, set)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Query = copy of the big set (containment 1.0).
	got, err := e.Query(sketchFor(h, big), len(big))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got {
		if id == 99 {
			found = true
		}
	}
	if !found {
		t.Fatal("ensemble missed an exactly-contained set")
	}
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := NewEnsembleBuilder(0, 256, 4); err == nil {
		t.Fatal("expected threshold error")
	}
	if _, err := NewEnsembleBuilder(0.5, 0, 4); err == nil {
		t.Fatal("expected numHash error")
	}
	eb, _ := NewEnsembleBuilder(0.5, 16, 2)
	if err := eb.Add(1, -1, make([]uint32, 16)); err == nil {
		t.Fatal("expected negative-size error")
	}
	if err := eb.Add(1, 5, make([]uint32, 4)); err == nil {
		t.Fatal("expected short-signature error")
	}
	e, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e.Partitions() != 0 {
		t.Fatal("empty build should have no partitions")
	}
}

// --- Benchmarks ---

func BenchmarkForestQuery(b *testing.B) {
	h := minhash.MustHasher(256, 1)
	f := MustForest(8, 32)
	rng := rand.New(rand.NewSource(1))
	sets := buildTokenSets(2000, 50, rng, 50000)
	for i, s := range sets {
		if err := f.Add(int32(i), sketchFor(h, s)); err != nil {
			b.Fatal(err)
		}
	}
	f.Index()
	q := sketchFor(h, sets[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Query(q, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandedQuery(b *testing.B) {
	h := minhash.MustHasher(256, 1)
	bands, rows := OptimalParams(0.7, 256)
	idx := MustBanded(bands, rows)
	rng := rand.New(rand.NewSource(1))
	sets := buildTokenSets(2000, 50, rng, 50000)
	for i, s := range sets {
		if err := idx.Add(int32(i), sketchFor(h, s)); err != nil {
			b.Fatal(err)
		}
	}
	q := sketchFor(h, sets[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
