package tokenize

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// refQGrams is QGrams as it was before its grams became substrings of
// the stripped name: every gram converted from a window of the name's
// runes. It is the oracle QGrams is checked against.
func refQGrams(name string, q int) []string {
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

// TestQGramsMatchesReference: QGrams gives refQGrams' grams, in its
// order, on ASCII and multi-byte names, invalid UTF-8, names shorter
// than q, as long as q and one rune longer, repeated grams, and q ≤ 0.
func TestQGramsMatchesReference(t *testing.T) {
	names := []string{
		"", "!!!", "a", "GP", "Address", "Practice Name", "practice_name", "aaaaaa",
		"läkare-посткод", "Ünïcödé Straße", "日本語の列名", "ǅemal", "İSTANBUL",
		"\x80\xfe invalid utf8", "ab\xffcd\xc3", "\xed\xa0\x80surrogate", "𝔸𝔹ℂ𝔻𝔼 wide runes",
		strings.Repeat("xy", 40),
	}
	for _, name := range names {
		for _, q := range []int{-3, 0, 1, 2, 3, 4, 5, 6, 7, 100} {
			got, want := QGrams(name, q), refQGrams(name, q)
			if !slices.Equal(got, want) {
				t.Errorf("QGrams(%q, %d) = %q, reference %q", name, q, got, want)
			}
		}
	}
}

// FuzzQGrams asserts the q-gram decomposition never panics and always
// honours its contract on arbitrary names and widths: grams are
// lower-case alphanumeric, at most q runes long, deduplicated, and
// refQGrams' grams in refQGrams' order.
func FuzzQGrams(f *testing.F) {
	f.Add("Practice Name", 4)
	f.Add("", 4)
	f.Add("läkare-посткод", 3)
	f.Add("a", 0)
	f.Add("!!!", -7)
	f.Add(strings.Repeat("x", 500), 2)
	f.Add("\x80\xfe invalid utf8", 4)
	f.Fuzz(func(t *testing.T, name string, q int) {
		grams := QGrams(name, q)
		if want := refQGrams(name, q); !slices.Equal(grams, want) {
			t.Fatalf("QGrams(%q, %d) = %q, reference %q", name, q, grams, want)
		}
		width := q
		if width <= 0 {
			width = DefaultQ
		}
		seen := make(map[string]struct{}, len(grams))
		for _, g := range grams {
			if g == "" {
				t.Fatalf("QGrams(%q, %d) produced an empty gram", name, q)
			}
			if utf8.RuneCountInString(g) > width && len(grams) != 1 {
				t.Fatalf("QGrams(%q, %d): gram %q longer than q", name, q, g)
			}
			for _, r := range g {
				if strings.ToLower(string(r)) != string(r) {
					t.Fatalf("QGrams(%q, %d): gram %q not lower-cased", name, q, g)
				}
			}
			if _, dup := seen[g]; dup {
				t.Fatalf("QGrams(%q, %d): duplicate gram %q", name, q, g)
			}
			seen[g] = struct{}{}
		}
	})
}

// FuzzTokens asserts the full value decomposition never panics and
// never emits empty or upper-case tokens, and that the words an Extent
// scans out of a value are Tokens' words, in order.
func FuzzTokens(f *testing.F) {
	f.Add("69 Church St, Manchester, M26 2SP")
	f.Add("")
	f.Add("a,b;c:d/e|f(g)h[i]j{k}l\"m")
	f.Add("  \t\n  ")
	f.Add("price: £1,234.56 (incl. 20% VAT)")
	f.Add(strings.Repeat(",", 300))
	f.Add("\xff\xfe broken")
	f.Add("İSTANBUL \u212aelvin x\u0085y\u00a0z")
	var e Extent
	f.Fuzz(func(t *testing.T, value string) {
		tokens := Tokens(value)
		for _, w := range tokens {
			if w == "" {
				t.Fatalf("Tokens(%q) produced an empty token", value)
			}
			if w != strings.ToLower(w) {
				t.Fatalf("Tokens(%q): token %q not lower-cased", value, w)
			}
		}
		e.Reset()
		e.Add(value)
		if len(e.words) != len(tokens) {
			t.Fatalf("Extent scanned %d words out of %q, Tokens %d", len(e.words), value, len(tokens))
		}
		for i, id := range e.words {
			if e.vocab[id] != tokens[i] {
				t.Fatalf("Extent word %d of %q is %q, Tokens' %q", i, value, e.vocab[id], tokens[i])
			}
		}
	})
}

// FuzzHistogram exercises the histogram and the Example 2 per-part
// refinement over arbitrary extents: counts stay consistent, Signals
// only nominates words of the extent, and an embedding nomination is
// never in the histogram's infrequent half.
func FuzzHistogram(f *testing.F) {
	f.Add("51 Botanic Av, Belfast", "1a Chapel St, Salford")
	f.Add("", "")
	f.Add("x", strings.Repeat("y ", 200))
	f.Fuzz(func(t *testing.T, v1, v2 string) {
		h := NewHistogram()
		h.Insert(Tokens(v1))
		h.Insert(Tokens(v2))
		if h.total < 0 {
			t.Fatal("negative histogram counter")
		}
		infrequent := make(map[string]bool)
		for _, w := range h.Infrequent() {
			infrequent[w] = true
		}
		var e Extent
		e.Reset()
		e.Add(v1)
		e.Add(v2)
		tset, embed := e.Signals()
		for _, w := range tset {
			if _, ok := h.counts[w]; !ok {
				t.Fatalf("Signals(%q, %q) put %q in the tset, not a word of the extent", v1, v2, w)
			}
		}
		for _, w := range embed {
			if _, ok := h.counts[w]; !ok || infrequent[w] {
				t.Fatalf("Signals(%q, %q) nominated %q, not a frequent word of the extent", v1, v2, w)
			}
		}
	})
}
