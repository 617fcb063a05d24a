package format

import (
	"testing"
	"unicode"
	"unicode/utf8"

	"d3l/internal/datagen"
)

// referenceTokenSymbols scans one whitespace-delimited token and appends
// its symbol string to dst by segmenting it into runs: letters-with-
// case-structure, digits, and punctuation. A capitalised prefix
// followed by digits yields separate symbols (e.g. "M13" -> U N,
// matching the A-or-split treatment; we classify maximal same-category
// runs then join). Class symbols are ASCII, so the buffer is a plain
// byte slice the caller recycles — deriving a format string allocates
// nothing until a distinct rset entry is interned.
func referenceTokenSymbols(dst []byte, token string) []byte {
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

// referenceRegexInto is regexInto as it was before the one-scan rewrite:
// it decodes every byte as a rune and segments each whitespace-delimited
// token on its own. It derives the format-describing byte string of a value using
// the two recycled buffers: sym accumulates the raw per-token symbols,
// out receives the collapsed form. It returns both buffers (possibly
// grown) with out holding the result.
func referenceRegexInto(value string, sym, out []byte) (symBuf, collapsed []byte) {
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
		sym = referenceTokenSymbols(sym, value[i:j])
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

// FuzzRegexString compares the one-scan regexInto with the reference on
// arbitrary bytes: multi-byte and invalid UTF-8, Unicode spaces, case
// and digit classes outside ASCII.
func FuzzRegexString(f *testing.F) {
	for _, s := range []string{
		"18 Portland Street, M1 3BE", "08:00-18:00", "a1b2c3d4", "", "   ", "NHS Trust",
		"İstanbul K\u212a", "Straße ǅemal", "x\u0085y\u00a0z", "\xff\xfe broken", "\xc3", "١٢٣ ٤",
		"ΣΑΣ σας", "$12.50 (approx)", "M13", "ABc", "日本語 テキスト",
	} {
		f.Add(s)
	}
	var sym, out, refSym, refOut []byte
	f.Fuzz(func(t *testing.T, value string) {
		sym, out = regexInto(value, sym, out)
		refSym, refOut = referenceRegexInto(value, refSym, refOut)
		if string(out) != string(refOut) {
			t.Fatalf("regexInto(%q) = %q, reference %q", value, out, refOut)
		}
	})
}

// TestRegexMatchesReferenceOnLake runs every non-null value of the
// benchmark lake (the paper's Synthetic at 1 000 derived tables, seed
// 1307) through both scanners.
func TestRegexMatchesReferenceOnLake(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 1 000-table benchmark lake")
	}
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 1307
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sym, out, refSym, refOut []byte
	values := 0
	for _, tb := range lake.Tables() {
		for _, col := range tb.Columns {
			for _, v := range col.NonNull() {
				sym, out = regexInto(v, sym, out)
				refSym, refOut = referenceRegexInto(v, refSym, refOut)
				if string(out) != string(refOut) {
					t.Fatalf("regexInto(%q) = %q, reference %q", v, out, refOut)
				}
				values++
			}
		}
	}
	t.Logf("%d values match", values)
}
