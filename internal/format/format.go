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

// appendTokenSymbols scans one whitespace-delimited token and appends
// its symbol string to dst by segmenting it into runs: letters-with-
// case-structure, digits, and punctuation. A capitalised prefix
// followed by digits yields separate symbols (e.g. "M13" -> U N,
// matching the A-or-split treatment; we classify maximal same-category
// runs then join). Class symbols are ASCII, so the buffer is a plain
// byte slice the caller recycles — deriving a format string allocates
// nothing until a distinct rset entry is interned.
func appendTokenSymbols(dst []byte, token string) []byte {
	start := len(dst)
	i := 0
	for i < len(token) {
		r, sz := utf8.DecodeRuneInString(token[i:])
		switch {
		case unicode.IsUpper(r):
			// Consume the upper run, then an optional lower tail (C).
			j := i + sz
			single := true
			for j < len(token) {
				r2, sz2 := utf8.DecodeRuneInString(token[j:])
				if !unicode.IsUpper(r2) {
					break
				}
				j += sz2
				single = false
			}
			if single { // single capital: maybe C with lower tail
				k := j
				for k < len(token) {
					r2, sz2 := utf8.DecodeRuneInString(token[k:])
					if !unicode.IsLower(r2) {
						break
					}
					k += sz2
				}
				if k > j {
					dst = append(dst, ClassC)
					i = k
					continue
				}
			}
			dst = append(dst, ClassU)
			i = j
		case unicode.IsLower(r):
			j := i + sz
			for j < len(token) {
				r2, sz2 := utf8.DecodeRuneInString(token[j:])
				if !unicode.IsLower(r2) {
					break
				}
				j += sz2
			}
			dst = append(dst, ClassL)
			i = j
		case unicode.IsDigit(r):
			j := i + sz
			for j < len(token) {
				r2, sz2 := utf8.DecodeRuneInString(token[j:])
				if !unicode.IsDigit(r2) {
					break
				}
				j += sz2
			}
			dst = append(dst, ClassN)
			i = j
		default:
			j := i + sz
			for j < len(token) {
				r2, sz2 := utf8.DecodeRuneInString(token[j:])
				if unicode.IsUpper(r2) || unicode.IsLower(r2) || unicode.IsDigit(r2) {
					break
				}
				j += sz2
			}
			dst = append(dst, ClassP)
			i = j
		}
	}
	// Mixed alphanumeric tokens with more than two alternations collapse
	// to A: they behave like identifiers (paper's A class), keeping rsets
	// crisp rather than noisy.
	if len(dst)-start > 3 && !containsP(dst[start:]) {
		dst = append(dst[:start], ClassA)
	}
	return dst
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
func regexInto(value string, sym, out []byte) (symBuf, collapsed []byte) {
	sym = sym[:0]
	i := 0
	for i < len(value) {
		r, sz := utf8.DecodeRuneInString(value[i:])
		if unicode.IsSpace(r) {
			i += sz
			continue
		}
		j := i + sz
		for j < len(value) {
			r2, sz2 := utf8.DecodeRuneInString(value[j:])
			if unicode.IsSpace(r2) {
				break
			}
			j += sz2
		}
		sym = appendTokenSymbols(sym, value[i:j])
		i = j
	}
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
