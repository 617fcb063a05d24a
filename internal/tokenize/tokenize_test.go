package tokenize

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestQGramsPaperExample(t *testing.T) {
	// Example 2: get_qgrams("Address") with q=4 -> {addr, ddre, dres, ress}.
	got := QGrams("Address", 4)
	want := []string{"addr", "ddre", "dres", "ress"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QGrams(Address) = %v, want %v", got, want)
	}
}

func TestQGramsShortName(t *testing.T) {
	got := QGrams("GP", 4)
	if !reflect.DeepEqual(got, []string{"gp"}) {
		t.Fatalf("QGrams(GP) = %v, want [gp]", got)
	}
}

func TestQGramsStripsPunctuationAndCase(t *testing.T) {
	a := QGrams("Practice Name", 4)
	b := QGrams("practice_name", 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("case/punctuation should not matter: %v vs %v", a, b)
	}
}

func TestQGramsEmpty(t *testing.T) {
	if got := QGrams("", 4); got != nil {
		t.Fatalf("QGrams(\"\") = %v, want nil", got)
	}
	if got := QGrams("!!!", 4); got != nil {
		t.Fatalf("QGrams(punct-only) = %v, want nil", got)
	}
}

func TestQGramsDefaultQ(t *testing.T) {
	if !reflect.DeepEqual(QGrams("Address", 0), QGrams("Address", DefaultQ)) {
		t.Fatal("q<=0 should fall back to DefaultQ")
	}
}

func TestQGramsDeduplicates(t *testing.T) {
	got := QGrams("aaaaaa", 2)
	if !reflect.DeepEqual(got, []string{"aa"}) {
		t.Fatalf("QGrams(aaaaaa,2) = %v, want [aa]", got)
	}
}

func TestQGramsCountProperty(t *testing.T) {
	f := func(s string) bool {
		grams := QGrams(s, 4)
		seen := map[string]struct{}{}
		for _, g := range grams {
			if _, dup := seen[g]; dup {
				return false // must be a set
			}
			seen[g] = struct{}{}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// partSignals runs the Example 2 refinement over an extent of the
// given values and copies the result out of it.
func partSignals(values ...string) (tset, embed []string) {
	var e Extent
	e.Reset()
	for _, v := range values {
		e.Add(v)
	}
	tset, embed = e.Signals()
	return append([]string(nil), tset...), append([]string(nil), embed...)
}

// The refinement nominates one tset word per part, so over one value
// whose words all differ its length counts the parts the value splits
// into.
func TestPartsSplitsAtPunctuation(t *testing.T) {
	got, _ := partSignals("18 Portland Street, M1 3BE")
	want := []string{"portland", "3be"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tset = %v, want one word for each of the two parts %v", got, want)
	}
}

func TestPartsDropsEmpties(t *testing.T) {
	got, _ := partSignals(",,a,, ,b,")
	want := []string{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tset = %v, want %v", got, want)
	}
}

func TestWordsLowercasesAndSplits(t *testing.T) {
	got := Words("41 Oxford-Road")
	want := []string{"41", "oxford", "road"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestTokensWholeValue(t *testing.T) {
	got := Tokens("9 Mirabel Street, M3 1NN")
	want := []string{"9", "mirabel", "street", "m3", "1nn"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
}

func extentHistogram(values []string) *Histogram {
	h := NewHistogram()
	for _, v := range values {
		h.Insert(Tokens(v))
	}
	return h
}

func TestHistogramFrequentInfrequentSplit(t *testing.T) {
	// 'street' occurs in every value; the street names occur once each.
	values := []string{
		"18 Portland Street", "41 Oxford Street", "9 Mirabel Street",
	}
	h := extentHistogram(values)
	if th := h.threshold(); float64(h.counts["street"]) <= th || float64(h.counts["portland"]) > th {
		t.Fatalf("'street' (%d) should be frequent and 'portland' (%d) not, at cut %v", h.counts["street"], h.counts["portland"], th)
	}
	inf := h.Infrequent()
	sort.Strings(inf)
	for _, w := range []string{"mirabel", "oxford", "portland"} {
		if sort.SearchStrings(inf, w) == len(inf) || inf[sort.SearchStrings(inf, w)] != w {
			t.Fatalf("infrequent set missing %q: %v", w, inf)
		}
	}
	if len(inf) != len(h.counts)-1 {
		t.Fatalf("infrequent set = %v, want every token but 'street'", inf)
	}
}

func TestHistogramPartitionProperty(t *testing.T) {
	// Infrequent is a set: every token at or below the cut, once.
	f := func(tokens []string) bool {
		h := NewHistogram()
		h.Insert(tokens)
		inf := map[string]bool{}
		for _, w := range h.Infrequent() {
			if inf[w] {
				return false
			}
			inf[w] = true
		}
		for w, c := range h.counts {
			if (float64(c) > h.threshold()) == inf[w] {
				return false
			}
		}
		return len(inf) <= len(h.counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramCounts(t *testing.T) {
	h := NewHistogram()
	h.Insert([]string{"a", "b", "a"})
	h.Insert([]string{"a"})
	if h.counts["a"] != 3 || h.counts["b"] != 1 || h.counts["zzz"] != 0 {
		t.Fatalf("counts wrong: a=%d b=%d", h.counts["a"], h.counts["b"])
	}
	if h.total != 4 || len(h.counts) != 2 {
		t.Fatalf("total=%d distinct=%d", h.total, len(h.counts))
	}
}

func TestPartSignalsPaperExample(t *testing.T) {
	// Example 2 extent: street parts contribute their rare word to the
	// tset; the frequent 'street' words are nominated for embedding.
	values := []string{
		"18 Portland Street, M1 3BE",
		"41 Oxford Road, M13 9PL",
		"9 Mirabel Street, M3 1NN",
	}
	tset, embed := partSignals(values...)
	foundPortland := false
	for _, w := range tset {
		if w == "portland" {
			foundPortland = true
		}
		if w == "street" {
			t.Fatal("'street' must not enter the tset (frequent)")
		}
	}
	if !foundPortland {
		t.Fatalf("tset %v should contain 'portland'", tset)
	}
	foundStreet := false
	for _, w := range embed {
		if w == "street" {
			foundStreet = true
		}
	}
	if !foundStreet {
		t.Fatalf("embedding nominations %v should contain 'street'", embed)
	}
}

func TestPartSignalsEmptyValue(t *testing.T) {
	tset, embed := partSignals("")
	if len(tset) != 0 || len(embed) != 0 {
		t.Fatalf("empty value should produce no signals, got %v and %v", tset, embed)
	}
}

func TestPartSignalsDeterministicTies(t *testing.T) {
	t1, e1 := partSignals("alpha beta")
	t2, e2 := partSignals("alpha beta")
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("Signals should be deterministic")
	}
	if t1[0] != "alpha" { // lexicographic tie-break
		t.Fatalf("tie should break lexicographically, got %v", t1)
	}
}

// TestExtentResetForgetsTheColumn: an extent recycled through Reset
// answers for the new column exactly what a fresh one does, and holds
// none of the old column's words, in Signals' results either.
func TestExtentResetForgetsTheColumn(t *testing.T) {
	var e Extent
	e.Reset()
	for _, v := range []string{"Oak Street, Leeds", "Elm Street, York", "Street 9"} {
		e.Add(v)
	}
	oldT, oldE := e.Signals()
	e.Reset()
	for _, w := range append(oldT, oldE...) {
		if w != "" {
			t.Fatalf("after Reset, the last Signals still hold %q", w)
		}
	}
	e.Add("alpha beta, gamma")
	e.Add("beta")
	tset, embed := e.Signals()
	wantT, wantE := partSignals("alpha beta, gamma", "beta")
	if !reflect.DeepEqual(tset, wantT) || !reflect.DeepEqual(embed, wantE) {
		t.Fatalf("after Reset: %v / %v, fresh %v / %v", tset, embed, wantT, wantE)
	}
}
