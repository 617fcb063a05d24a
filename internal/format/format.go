// Package format derives the regular-expression representation of a
// value's format (the F evidence of D3L, Section III-A): each value is
// mapped to a string over the primitive lexical classes
//
//	C = [A-Z][a-z]+   capitalised word
//	U = [A-Z]+        upper-case run
//	L = [a-z]+        lower-case run
//	N = [0-9]+        digit run
//	A = [A-Za-z0-9]+  mixed alphanumeric run
//	P = punctuation (any character not caught above)
//
// with consecutive repetitions of a symbol collapsed to a single symbol
// followed by '+', e.g. the value "18 Portland Street, M1 3BE" maps to
// "N C+ P A+" style strings. The set of such strings over an extent is
// the rset R(a), compared by Jaccard distance via MinHash.
package format

import (
	"unicode"
	"unicode/utf8"
)

// Class symbols, ordered as enumerated in the paper; when a token
// matches several primitive classes the first match wins.
const (
	ClassC = 'C'
	ClassU = 'U'
	ClassL = 'L'
	ClassN = 'N'
	ClassA = 'A'
	ClassP = 'P'
)

// Lexical categories of a character: the primitive classes a run of
// characters is built from, and the whitespace between tokens.
const (
	catP     = iota // punctuation: any character not caught below
	catUpper        // unicode.IsUpper
	catLower        // unicode.IsLower
	catDigit        // unicode.IsDigit
	catSpace        // unicode.IsSpace
)

// runeCat categorises a rune. The categories are disjoint, so the order
// of the tests does not matter.
func runeCat(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return catSpace
	case unicode.IsUpper(r):
		return catUpper
	case unicode.IsLower(r):
		return catLower
	case unicode.IsDigit(r):
		return catDigit
	}
	return catP
}

// asciiCat is runeCat of every ASCII byte.
var asciiCat = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		t[c] = runeCat(rune(c))
	}
	return t
}()

// catAt categorises the character at value[i] and reports its width. A
// byte below 0x80 is looked up; only a byte at or above it starts a rune
// decode (an invalid byte decodes to U+FFFD, punctuation, width 1).
func catAt(value string, i int) (cat uint8, width int) {
	if c := value[i]; c < utf8.RuneSelf {
		return asciiCat[c], 1
	}
	r, n := utf8.DecodeRuneInString(value[i:])
	return runeCat(r), n
}

// skipCat returns the end of the run of category cat that starts at
// value[i].
func skipCat(value string, i int, cat uint8) int {
	for i < len(value) {
		c, n := catAt(value, i)
		if c != cat {
			break
		}
		i += n
	}
	return i
}

// endToken finishes the symbols of the whitespace-delimited token that
// starts at sym[start] (start < 0: no token is open). Mixed alphanumeric
// tokens with more than two alternations collapse to A: they behave like
// identifiers (paper's A class), keeping rsets crisp rather than noisy.
func endToken(sym []byte, start int) []byte {
	if start >= 0 && len(sym)-start > 3 && !containsP(sym[start:]) {
		sym = append(sym[:start], ClassA)
	}
	return sym
}

func containsP(symbols []byte) bool {
	for _, s := range symbols {
		if s == ClassP {
			return true
		}
	}
	return false
}

// regexInto derives the format-describing byte string of a value using
// the two recycled buffers: sym accumulates the raw per-token symbols,
// out receives the collapsed form. It returns both buffers (possibly
// grown) with out holding the result.
//
// One scan segments each whitespace-delimited token into maximal runs
// of one category: an upper-case run (U), or a single capital with a
// lower-case tail (C, so "M13" is U N); a lower-case run (L); a digit
// run (N); a punctuation run (P).
func regexInto(value string, sym, out []byte) (symBuf, collapsed []byte) {
	sym = sym[:0]
	token := -1 // where the open token's symbols start in sym
	for i := 0; i < len(value); {
		cat, n := catAt(value, i)
		if cat == catSpace {
			sym = endToken(sym, token)
			token = -1
			i += n
			continue
		}
		if token < 0 {
			token = len(sym)
		}
		j := skipCat(value, i+n, cat)
		switch cat {
		case catUpper:
			if j == i+n { // a single capital: C when a lower tail follows
				if k := skipCat(value, j, catLower); k > j {
					sym = append(sym, ClassC)
					i = k
					continue
				}
			}
			sym = append(sym, ClassU)
		case catLower:
			sym = append(sym, ClassL)
		case catDigit:
			sym = append(sym, ClassN)
		default:
			sym = append(sym, ClassP)
		}
		i = j
	}
	sym = endToken(sym, token)
	// Collapse runs of the same symbol to "X+".
	out = out[:0]
	k := 0
	for k < len(sym) {
		out = append(out, sym[k])
		j := k + 1
		for j < len(sym) && sym[j] == sym[k] {
			j++
		}
		if j > k+1 {
			out = append(out, '+')
		}
		k = j
	}
	return sym, out
}

// RSetScratch carries the reusable buffers of RSetAppend. The zero
// value is ready.
type RSetScratch struct {
	sym  []byte
	out  []byte
	seen map[string]struct{}
}

// RSetAppend appends the rset of an extent to dst: the deduplicated set
// of its values' regex strings (the union in Algorithm 1, line 7). A
// value's regex string is its per-token symbol strings joined in order,
// with consecutive identical symbols collapsed to the first occurrence
// followed by '+'. It reuses the scratch buffers and interns a string
// only for each distinct format (the map membership probe on the byte
// buffer compiles to a no-allocation lookup).
func RSetAppend(dst []string, values []string, s *RSetScratch) []string {
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	clear(s.seen)
	for _, v := range values {
		s.sym, s.out = regexInto(v, s.sym, s.out)
		if len(s.out) == 0 {
			continue
		}
		if _, dup := s.seen[string(s.out)]; dup {
			continue
		}
		rs := string(s.out)
		s.seen[rs] = struct{}{}
		dst = append(dst, rs)
	}
	return dst
}
