package embed

import (
	"math"
	"slices"
	"testing"
)

// word is the embedding of one word, copied out of a fresh scratch.
func word(m *Model, w string) []float64 {
	return slices.Clone(m.NewScratch().Word(w))
}

// cosine is the cosine similarity of two vectors; zero vectors yield 0.
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func TestWordDeterminism(t *testing.T) {
	m1 := NewModel(42)
	m2 := NewModel(42)
	a := word(m1, "manchester")
	b := word(m2, "manchester")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical vectors")
		}
	}
}

func TestWordUnitNorm(t *testing.T) {
	m := NewModel(1)
	for _, w := range []string{"street", "a", "blackfriars", "08:00"} {
		v := word(m, w)
		var n float64
		for _, x := range v {
			n += x * x
		}
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("Word(%q) norm^2 = %v, want 1", w, n)
		}
	}
}

func TestEmptyWordIsZero(t *testing.T) {
	m := NewModel(1)
	if !IsZero(word(m, "")) || !IsZero(word(m, "   ")) {
		t.Fatal("empty word should embed to zero vector")
	}
}

func TestSynonymsCloserThanUnrelated(t *testing.T) {
	m := NewModel(7)
	doctor := word(m, "doctor")
	gp := word(m, "gp")
	practice := word(m, "practice")
	rainfall := word(m, "rainfall")
	if cosine(doctor, gp) < 0.5 {
		t.Fatalf("doctor~gp cosine %v, want high (shared concept)", cosine(doctor, gp))
	}
	if cosine(doctor, practice) < 0.5 {
		t.Fatalf("doctor~practice cosine %v, want high", cosine(doctor, practice))
	}
	if cosine(doctor, rainfall) > 0.4 {
		t.Fatalf("doctor~rainfall cosine %v, want low", cosine(doctor, rainfall))
	}
	if cosine(doctor, gp) <= cosine(doctor, rainfall) {
		t.Fatal("synonyms must be closer than unrelated words")
	}
}

func TestOrthographicSimilarityHelps(t *testing.T) {
	m := NewModel(7)
	a := word(m, "manchester")
	b := word(m, "manchestr") // typo shares most n-grams
	c := word(m, "xylophone")
	if cosine(a, b) <= cosine(a, c) {
		t.Fatalf("typo cosine %v should beat unrelated %v", cosine(a, b), cosine(a, c))
	}
	if cosine(a, b) < 0.4 {
		t.Fatalf("typo cosine %v, want substantial subword sharing", cosine(a, b))
	}
}

func TestMeanOfWords(t *testing.T) {
	m := NewModel(5)
	mean := m.Mean([]string{"street", "road"})
	if IsZero(mean) {
		t.Fatal("mean of real words should be nonzero")
	}
	s := word(m, "street")
	if cosine(mean, s) < 0.5 {
		t.Fatalf("mean should stay close to members, cosine %v", cosine(mean, s))
	}
	if !IsZero(m.Mean(nil)) {
		t.Fatal("mean of no words should be zero")
	}
}

func TestAttributeLevelSemanticSignal(t *testing.T) {
	// Two attributes with different value domains but same semantics:
	// frequent tokens 'street','road' vs 'avenue','lane' should embed
	// closer than either is to money words. This is the paper's
	// motivation for E-relatedness.
	m := NewModel(9)
	addrA := m.Mean([]string{"street", "road"})
	addrB := m.Mean([]string{"avenue", "lane"})
	money := m.Mean([]string{"payment", "fee"})
	if cosine(addrA, addrB) <= cosine(addrA, money) {
		t.Fatalf("address~address %v should exceed address~money %v",
			cosine(addrA, addrB), cosine(addrA, money))
	}
}

func BenchmarkWord(b *testing.B) {
	m := NewModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word(m, "manchester")
	}
}
