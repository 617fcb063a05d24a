// Package embed provides the word-embedding model (WEM) behind D3L's E
// evidence. The paper uses a pre-trained fastText model; that resource
// is unavailable offline, so this package implements the documented
// substitution (DESIGN.md §4.1): the fastText *architecture* — a word
// vector is the normalised sum of its character n-gram vectors — with
// deterministic pseudo-random n-gram vectors, plus a concept lexicon
// that pulls known synonym groups together the way distributional
// training would. Orthographically close words therefore share subword
// mass, and semantically related but lexically different words in the
// generated lakes share concept mass, exercising the same code paths as
// a real WEM: per-word vectors, per-attribute mean vectors, cosine
// distance, and random-projection indexing.
package embed

import (
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// Dim is the embedding dimensionality. fastText ships 300; 64 keeps the
// same behaviour at simulation scale.
const Dim = 64

// ngram width range, as in fastText's default subword setting (3..6,
// trimmed to 3..5 here for short tokens).
const (
	minGram = 3
	maxGram = 5
)

// conceptWeight balances subword evidence against lexicon concepts. A
// word in a synonym group points mostly at the shared concept vector,
// with a subword-dependent residual.
const conceptWeight = 0.8

// Model maps words to Dim-dimensional vectors. It is immutable after
// construction and safe for concurrent use.
type Model struct {
	seed    uint64
	concept map[string]string // word -> concept id
}

// NewModel builds a model with the built-in lexicon.
func NewModel(seed uint64) *Model {
	return &Model{seed: seed, concept: builtinLexicon()}
}

// NewModelWithLexicon builds a model with a caller-provided synonym
// lexicon mapping each word to a concept identifier. Words sharing a
// concept identifier embed close together.
func NewModelWithLexicon(seed uint64, lexicon map[string]string) *Model {
	c := make(map[string]string, len(lexicon))
	for w, g := range lexicon {
		c[strings.ToLower(w)] = g
	}
	return &Model{seed: seed, concept: c}
}

// Dim reports the vector dimensionality.
func (m *Model) Dim() int { return Dim }

// Word returns the embedding of a single word. The zero word yields a
// zero vector.
func (m *Model) Word(word string) []float64 {
	return slices.Clone(m.NewScratch().Word(word))
}

// Mean combines word vectors into one attribute vector (the paper
// combines the p-vectors of the nominated words into a p-vector for the
// whole attribute). Zero input yields a zero vector.
func (m *Model) Mean(words []string) []float64 {
	return m.NewScratch().Mean(words)
}

// memoCap bounds a Scratch's word memo: 4 096 vectors are 2 MB, and a
// lake's attributes draw on a vocabulary that repeats (the benchmark
// lake asks for 3 919 distinct words 62 836 times). A fuller memo stops
// taking words; it never evicts.
const memoCap = 1 << 12

// Scratch is one goroutine's working state for embedding words with a
// Model: the padded token and the two vectors Word builds, reused call
// after call, and — from NewMemoScratch — a bounded memo of the vectors
// it has built, which is what fastText itself does with subword vectors
// (they are looked up, not recomputed). The memo belongs to whoever
// holds the Scratch and dies with it; the Model, shared and long-lived
// in a server, stays immutable. A Scratch is not safe for concurrent use.
type Scratch struct {
	m      *Model
	padded []byte  // "<" + word + ">", every rune re-encoded as UTF-8
	starts []int32 // byte offset of each rune of padded, then len(padded)
	word   [Dim]float64
	blend  [Dim]float64
	memo   map[string]*[Dim]float64 // nil without a memo
}

// NewScratch returns a Scratch that computes every word it is asked for.
func (m *Model) NewScratch() *Scratch { return &Scratch{m: m} }

// NewMemoScratch returns a Scratch that remembers up to memoCap word
// vectors, for a caller that embeds many attributes in a row.
func (m *Model) NewMemoScratch() *Scratch {
	return &Scratch{m: m, memo: make(map[string]*[Dim]float64)}
}

// Word returns the embedding of a single word, as Model.Word does, in a
// vector that is valid until the next call on s and must not be written.
func (s *Scratch) Word(word string) []float64 {
	w := strings.ToLower(strings.TrimSpace(word))
	if v, ok := s.memo[w]; ok {
		return v[:]
	}
	vec := &s.word
	*vec = [Dim]float64{}
	if w == "" {
		return vec[:]
	}
	// Subword component: mean of hashed character n-gram vectors over
	// the fastText-style padded token. An n-gram is a run of runes; it is
	// hashed as the bytes those runes encode to (invalid UTF-8 decodes to
	// U+FFFD, one rune a byte, and is re-encoded as such).
	s.padded = append(s.padded[:0], '<')
	s.starts = append(s.starts[:0], 0)
	for _, r := range w {
		s.starts = append(s.starts, int32(len(s.padded)))
		s.padded = utf8.AppendRune(s.padded, r)
	}
	s.starts = append(s.starts, int32(len(s.padded)))
	s.padded = append(s.padded, '>')
	s.starts = append(s.starts, int32(len(s.padded)))
	runes := len(s.starts) - 1 // at least 3, so at least one n-gram
	count := 0
	for g := minGram; g <= maxGram; g++ {
		for i := 0; i+g <= runes; i++ {
			addHashedVector(vec, hashKey(s.m.seed, s.padded[s.starts[i]:s.starts[i+g]]))
			count++
		}
	}
	for i := range vec {
		vec[i] /= float64(count)
	}
	normalize(vec[:])
	// Concept component: blend toward the shared concept vector.
	if concept, ok := s.m.concept[w]; ok {
		cvec := &s.blend
		*cvec = [Dim]float64{}
		addHashedVector(cvec, hashKey(hashKey(s.m.seed^0x5bd1e995, "concept:"), concept))
		normalize(cvec[:])
		for i := range vec {
			vec[i] = conceptWeight*cvec[i] + (1-conceptWeight)*vec[i]
		}
		normalize(vec[:])
	}
	if s.memo != nil && len(s.memo) < memoCap {
		kept := *vec
		s.memo[w] = &kept
	}
	return vec[:]
}

// Mean combines word vectors into one attribute vector, as Model.Mean
// does; the result is the caller's.
func (s *Scratch) Mean(words []string) []float64 {
	out := make([]float64, Dim)
	if len(words) == 0 {
		return out
	}
	for _, w := range words {
		wv := s.Word(w)
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

// Cosine returns the cosine similarity of two vectors; zero vectors
// yield 0.
func Cosine(a, b []float64) float64 {
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

// CosineDistance returns 1 − cosine similarity clamped to [0, 1], the
// D_E distance of Section III-B.
func CosineDistance(a, b []float64) float64 {
	d := 1 - Cosine(a, b)
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// IsZero reports whether a vector has no mass (no embeddable content).
func IsZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// hashKey folds key into h, FNV-1a style. Folding a key in pieces gives
// the hash of the concatenation.
func hashKey[K string | []byte](h uint64, key K) uint64 {
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV prime
	}
	return h
}

// addHashedVector accumulates into vec the deterministic pseudo-random
// unit-less Gaussian-ish vector of a key hash. Components are derived
// from a SplitMix64 stream seeded by the hash, mapped to [-1, 1).
func addHashedVector(vec *[Dim]float64, h uint64) {
	state := h
	for i := range vec {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		// Uniform in [-1, 1): a fine stand-in for Gaussian components
		// given the downstream mean + normalise.
		u := float64(z>>11) / (1 << 53)
		vec[i] += 2*u - 1
	}
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}
