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
