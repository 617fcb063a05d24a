// Package tokenize implements the value decomposition of D3L's Section
// III-A: an attribute extent is construed as a set of documents (one per
// value), each document as a set of parts (split at punctuation), and
// each part as a set of words. A token-occurrence histogram over the
// extent splits tokens into infrequent ones (strong value-similarity
// signal, fed to the V evidence / tset) and frequent ones (domain-type
// indicators, fed to the word-embedding E evidence).
//
// It also provides the q-gram decomposition of attribute names used by
// the N evidence (q = 4 in the paper).
package tokenize

import (
	"strings"
	"unicode"
)

// DefaultQ is the q-gram width the paper selected for attribute names
// ("We have used q = 4").
const DefaultQ = 4

// QGrams returns the set of q-grams of the lower-cased, whitespace- and
// punctuation-stripped name. Names shorter than q yield a single gram
// with the whole residue, so short names still produce a signal.
func QGrams(name string, q int) []string {
	if q <= 0 {
		q = DefaultQ
	}
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		}
	}
	s := b.String()
	if s == "" {
		return nil
	}
	runes := []rune(s)
	if len(runes) <= q {
		return []string{s}
	}
	seen := make(map[string]struct{})
	grams := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		g := string(runes[i : i+q])
		if _, dup := seen[g]; !dup {
			seen[g] = struct{}{}
			grams = append(grams, g)
		}
	}
	return grams
}

// isPartSeparator reports punctuation that splits a value into parts
// (Example 2 splits an address value at commas).
func isPartSeparator(r rune) bool {
	switch r {
	case ',', ';', ':', '/', '|', '(', ')', '[', ']', '{', '}', '"':
		return true
	}
	return false
}

// isWordSeparator reports characters that split a part into words
// (spaces and residual punctuation: hyphens, dots, underscores,
// apostrophes).
func isWordSeparator(r rune) bool {
	return unicode.IsSpace(r) || r == '-' || r == '.' || r == '_' || r == '\''
}

// isTokenSeparator reports characters that end a token: both part and
// word separators, since a token boundary occurs at either level of
// the decomposition.
func isTokenSeparator(r rune) bool {
	return isPartSeparator(r) || isWordSeparator(r)
}

// appendFields appends the maximal separator-free substrings of s to
// dst — strings.FieldsFunc without its span bookkeeping allocations;
// the fields alias s.
func appendFields(dst []string, s string, sep func(rune) bool) []string {
	start := -1
	for i, r := range s {
		if sep(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// Words splits a part into lower-cased words at spaces and residual
// punctuation (hyphens, dots), dropping empties.
func Words(part string) []string {
	fields := strings.FieldsFunc(strings.ToLower(part), isWordSeparator)
	out := fields[:0]
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Tokens is the full decomposition of a value: all words of all parts
// (get_tokens(v) in Algorithm 1).
func Tokens(value string) []string {
	return TokensAppend(nil, value)
}

// TokensAppend is the allocation-conscious Tokens: it appends the
// decomposition to dst (a recycled buffer) and returns the extended
// slice. Tokens are substrings of the lower-cased value, so for
// already-lower-case input the only work is the scan itself.
//
// Equivalence with Tokens: lower-casing never maps a letter onto a
// separator (separators are fixed punctuation and whitespace), so
// lowering the whole value before splitting produces the same fields
// as splitting first and lowering each part; and splitting on the
// union of part and word separators yields exactly the words of the
// parts, in order.
func TokensAppend(dst []string, value string) []string {
	return appendFields(dst, strings.ToLower(value), isTokenSeparator)
}

// Histogram counts token occurrences across an attribute extent and
// splits the vocabulary into frequent and infrequent halves, mirroring
// the H.infrequent()/H.frequent() data structure of Algorithm 1.
type Histogram struct {
	counts map[string]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[string]int)}
}

// Insert folds the tokens of one value/document into the histogram.
func (h *Histogram) Insert(tokens []string) {
	for _, t := range tokens {
		h.counts[t]++
		h.total++
	}
}

// Count reports the occurrences of a token.
func (h *Histogram) Count(token string) int { return h.counts[token] }

// threshold is the frequency cut: tokens occurring strictly more often
// than the mean occurrence count are frequent. With a uniform vocabulary
// everything is infrequent, which matches the intuition that a column of
// unique values carries only value-level signal.
func (h *Histogram) threshold() float64 {
	if len(h.counts) == 0 {
		return 0
	}
	return float64(h.total) / float64(len(h.counts))
}

// Infrequent returns tokens at or below the mean occurrence count: the
// informative, TF/IDF-like carriers of value-level similarity that make
// up the tset T(a).
func (h *Histogram) Infrequent() []string {
	th := h.threshold()
	out := make([]string, 0, len(h.counts))
	for t, c := range h.counts {
		if float64(c) <= th {
			out = append(out, t)
		}
	}
	return out
}

// IsFrequent reports whether a single token falls in the frequent half.
func (h *Histogram) IsFrequent(token string) bool {
	c, ok := h.counts[token]
	return ok && float64(c) > h.threshold()
}

// isNumericWord reports a word made entirely of digits.
func isNumericWord(w string) bool {
	for _, r := range w {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// SignalScratch carries the reusable buffers of PartSignalsScratch so
// the per-value refinement of a whole extent runs without per-value
// allocations. The zero value is ready.
type SignalScratch struct {
	parts  []string
	words  []string
	tset   []string
	embed  []string
	tokens []string
}

// TokensAppend decomposes a value into s.tokens (overwriting the
// previous call's result) — the buffer-reusing form profiling uses for
// the histogram pass.
func (s *SignalScratch) TokensAppend(value string) []string {
	s.tokens = TokensAppend(s.tokens[:0], value)
	return s.tokens
}

// PartSignalsScratch applies the per-part refinement from Example 2 of
// the paper to one value: for every part, the part's rarest word (fewest
// occurrences in the extent) joins the tset, and the part's most common
// word is nominated for embedding. Ties break lexicographically for
// determinism. The histogram must already cover the whole extent.
//
// Every intermediate slice lives in the caller's scratch: the result is
// valid until the next call on the same scratch, and the call allocates
// only when the lower-cased value differs from the original (Go returns
// the input string unchanged when lowering is a no-op).
func (h *Histogram) PartSignalsScratch(value string, s *SignalScratch) (tsetWords, embedWords []string) {
	s.tset, s.embed = s.tset[:0], s.embed[:0]
	// Lower once up front: part separators are fixed punctuation, which
	// case mapping never produces, so part boundaries are unchanged and
	// each word equals the lowered word of the original part.
	lv := strings.ToLower(value)
	s.parts = appendFields(s.parts[:0], lv, isPartSeparator)
	for _, part := range s.parts {
		s.words = appendFields(s.words[:0], part, isWordSeparator)
		words := s.words
		if len(words) == 0 {
			continue
		}
		// Pure-numeric words carry weak token-level signal (Section
		// III-C), so they only feed the tset when a part has nothing
		// else (Example 2 picks 'portland' and '3be', not the house
		// number): the rare scan skips numeric words whenever any
		// non-numeric word exists.
		hasNonNum := false
		for _, w := range words {
			if !isNumericWord(w) {
				hasNonNum = true
				break
			}
		}
		var rare string
		rareC, started := 0, false
		for _, w := range words {
			if hasNonNum && isNumericWord(w) {
				continue
			}
			c := h.Count(w)
			if !started || c < rareC || (c == rareC && w < rare) {
				rare, rareC, started = w, c, true
			}
		}
		common, commonC := words[0], h.Count(words[0])
		for _, w := range words[1:] {
			c := h.Count(w)
			if c > commonC || (c == commonC && w < common) {
				common, commonC = w, c
			}
		}
		s.tset = append(s.tset, rare)
		s.embed = append(s.embed, common)
	}
	return s.tset, s.embed
}
