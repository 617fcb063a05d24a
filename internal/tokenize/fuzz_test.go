package tokenize

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzQGrams asserts the q-gram decomposition never panics and always
// honours its contract on arbitrary names and widths: grams are
// lower-case alphanumeric, at most q runes long, and deduplicated.
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
// never emits empty or upper-case tokens.
func FuzzTokens(f *testing.F) {
	f.Add("69 Church St, Manchester, M26 2SP")
	f.Add("")
	f.Add("a,b;c:d/e|f(g)h[i]j{k}l\"m")
	f.Add("  \t\n  ")
	f.Add("price: £1,234.56 (incl. 20% VAT)")
	f.Add(strings.Repeat(",", 300))
	f.Add("\xff\xfe broken")
	f.Fuzz(func(t *testing.T, value string) {
		for _, w := range Tokens(value) {
			if w == "" {
				t.Fatalf("Tokens(%q) produced an empty token", value)
			}
			if w != strings.ToLower(w) {
				t.Fatalf("Tokens(%q): token %q not lower-cased", value, w)
			}
		}
	})
}

// FuzzHistogram exercises the histogram and the Example 2 per-part
// refinement over arbitrary extents: counts stay consistent and
// PartSignalsScratch only nominates words that exist in the value.
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
		nFreq := 0
		for w := range h.counts {
			if h.IsFrequent(w) {
				nFreq++
			}
		}
		if nInfreq := len(h.Infrequent()); nInfreq+nFreq != len(h.counts) {
			t.Fatalf("frequency split loses tokens: %d + %d != %d", nInfreq, nFreq, len(h.counts))
		}
		var s SignalScratch
		for _, v := range []string{v1, v2} {
			tsetWords, embedWords := h.PartSignalsScratch(v, &s)
			valueWords := make(map[string]struct{})
			for _, w := range Tokens(v) {
				valueWords[w] = struct{}{}
			}
			for _, w := range append(append([]string{}, tsetWords...), embedWords...) {
				if _, ok := valueWords[w]; !ok {
					t.Fatalf("PartSignalsScratch(%q) nominated %q, not a word of the value", v, w)
				}
			}
		}
	})
}
