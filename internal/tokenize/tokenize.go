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
	"unicode/utf8"
)

// DefaultQ is the q-gram width the paper selected for attribute names
// ("We have used q = 4").
const DefaultQ = 4

// QGrams returns the set of q-grams of the lower-cased, whitespace- and
// punctuation-stripped name. Names shorter than q yield a single gram
// with the whole residue, so short names still produce a signal. A gram
// is a substring of the stripped name, which WriteRune made valid UTF-8,
// so it costs no string of its own.
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
	n := utf8.RuneCountInString(s)
	if n <= q {
		return []string{s}
	}
	// The gram s[start:end] holds q runes: start walks the runes, and
	// end steps on with it, from the end of the first gram.
	end := 0
	for range q {
		_, size := utf8.DecodeRuneInString(s[end:])
		end += size
	}
	seen := make(map[string]struct{})
	grams := make([]string, 0, n-q+1)
	for start := range s {
		g := s[start:end]
		if _, dup := seen[g]; !dup {
			seen[g] = struct{}{}
			grams = append(grams, g)
		}
		if end == len(s) {
			break
		}
		_, size := utf8.DecodeRuneInString(s[end:])
		end += size
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
// (get_tokens(v) in Algorithm 1). Lower-casing never maps a letter onto
// a separator, so splitting the lowered value on the union of part and
// word separators yields exactly the words of its parts, in order.
func Tokens(value string) []string {
	return appendFields(nil, strings.ToLower(value), isTokenSeparator)
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

// threshold is the frequency cut: tokens occurring strictly more often
// than the mean occurrence count are frequent. With a uniform vocabulary
// everything is infrequent, which matches the intuition that a column of
// unique values carries only value-level signal.
func (h *Histogram) threshold() float64 { return frequencyCut(h.total, len(h.counts)) }

// frequencyCut is the mean occurrence count of a vocabulary of distinct
// tokens occurring total times in all.
func frequencyCut(total, distinct int) float64 {
	if distinct == 0 {
		return 0
	}
	return float64(total) / float64(distinct)
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
