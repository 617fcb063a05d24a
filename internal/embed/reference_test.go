package embed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refWord and refMean are Model.Word and Model.Mean as they were before
// Scratch: a []rune of the padded token, a string per n-gram, a fresh
// vector per word and per concept. Scratch must reproduce them slot for
// slot — the attribute embedding's hyperplane bits are compared exactly.
func refWord(m *Model, word string) []float64 {
	vec := make([]float64, Dim)
	w := strings.ToLower(strings.TrimSpace(word))
	if w == "" {
		return vec
	}
	padded := "<" + w + ">"
	runes := []rune(padded)
	count := 0
	for g := minGram; g <= maxGram; g++ {
		for i := 0; i+g <= len(runes); i++ {
			refAddHashedVector(vec, m.seed, string(runes[i:i+g]))
			count++
		}
	}
	if count == 0 {
		refAddHashedVector(vec, m.seed, padded)
		count = 1
	}
	for i := range vec {
		vec[i] /= float64(count)
	}
	normalize(vec)
	if concept, ok := m.concept[w]; ok {
		cvec := make([]float64, Dim)
		refAddHashedVector(cvec, m.seed^0x5bd1e995, "concept:"+concept)
		normalize(cvec)
		for i := range vec {
			vec[i] = conceptWeight*cvec[i] + (1-conceptWeight)*vec[i]
		}
		normalize(vec)
	}
	return vec
}

func refMean(m *Model, words []string) []float64 {
	out := make([]float64, Dim)
	if len(words) == 0 {
		return out
	}
	for _, w := range words {
		wv := refWord(m, w)
		for i := range out {
			out[i] += wv[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(words))
	}
	normalize(out)
	return out
}

func refAddHashedVector(vec []float64, seed uint64, key string) {
	h := seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV prime
	}
	next := refSplitMix64(h)
	for i := range vec {
		u := float64(next()>>11) / (1 << 53)
		vec[i] += 2*u - 1
	}
}

func refSplitMix64(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// randomWord draws from the shapes the profiler meets and the ones it
// should survive: lexicon words (any case, padded), short tokens,
// multi-byte runes, invalid UTF-8, blanks, and fresh words by the
// thousand so a memo overflows its cap.
func randomWord(rng *rand.Rand, lexicon []string) string {
	switch rng.Intn(8) {
	case 0:
		return lexicon[rng.Intn(len(lexicon))]
	case 1:
		return "  " + strings.ToUpper(lexicon[rng.Intn(len(lexicon))]) + "\t"
	case 2:
		return []string{"", " ", "\t \n", "a", "é", "ab", "日本", "\xff", "a\xc3"}[rng.Intn(9)]
	case 3:
		runes := []rune("añß日本語ΩЖ🙂é")
		n := 1 + rng.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(runes[rng.Intn(len(runes))])
		}
		return b.String()
	case 4:
		raw := make([]byte, rng.Intn(7))
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		return string(raw)
	case 5:
		return "street" + string(rune('a'+rng.Intn(3)))
	default:
		return fmt.Sprintf("w%d", rng.Intn(3*memoCap))
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestScratchEqualsReference: Word and Mean — through the Model, through
// a plain Scratch and through a memo Scratch that fills up and overflows
// — return the reference's vectors bit for bit over 20 000 random word
// lists.
func TestScratchEqualsReference(t *testing.T) {
	m := NewModel(0x13572468 ^ 42)
	var lexicon []string
	for w := range m.concept {
		lexicon = append(lexicon, w)
	}
	// Map order would make a failure unrepeatable.
	sort.Strings(lexicon)
	rng := rand.New(rand.NewSource(23))
	plain, memo := m.NewScratch(), m.NewMemoScratch()
	for round := 0; round < 20000; round++ {
		words := make([]string, rng.Intn(6))
		for i := range words {
			words[i] = randomWord(rng, lexicon)
		}
		want := refMean(m, words)
		for name, got := range map[string][]float64{
			"Model.Mean":        m.Mean(words),
			"Scratch.Mean":      plain.Mean(words),
			"memo Scratch.Mean": memo.Mean(words),
		} {
			if !bitEqual(got, want) {
				t.Fatalf("round %d: %s(%q) differs from the reference", round, name, words)
			}
		}
		for _, w := range words {
			want := refWord(m, w)
			if !bitEqual(m.Word(w), want) || !bitEqual(plain.Word(w), want) || !bitEqual(memo.Word(w), want) {
				t.Fatalf("round %d: Word(%q) differs from the reference", round, w)
			}
		}
	}
	if len(memo.memo) != memoCap {
		t.Fatalf("memo holds %d words, want it full at %d", len(memo.memo), memoCap)
	}
	if plain.memo != nil {
		t.Fatal("a plain Scratch grew a memo")
	}
}

// TestMemoDoesNotAliasTheScratchVector: a remembered vector survives the
// words embedded after it.
func TestMemoDoesNotAliasTheScratchVector(t *testing.T) {
	m := NewModel(9)
	s := m.NewMemoScratch()
	first := append([]float64(nil), s.Word("doctor")...)
	s.Word("rainfall")
	if !bitEqual(s.Word("doctor"), first) || !bitEqual(first, refWord(m, "doctor")) {
		t.Fatal("memoised vector changed after another word was embedded")
	}
}
