package format

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// regexString is the regex string RSetAppend derives for one value.
func regexString(value string) string {
	if rs := rset([]string{value}); len(rs) > 0 {
		return rs[0]
	}
	return ""
}

func rset(values []string) []string {
	var s RSetScratch
	return RSetAppend(nil, values, &s)
}

func TestRegexStringBasicClasses(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Portland", "C"},
		{"NHS", "U"},
		{"street", "L"},
		{"12345", "N"},
		{"-", "P"},
		{"", ""},
	}
	for _, c := range cases {
		if got := regexString(c.in); got != c.want {
			t.Errorf("regexString(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegexStringAddress(t *testing.T) {
	// "18 Portland Street" -> N C C -> "NC+"
	if got := regexString("18 Portland Street"); got != "NC+" {
		t.Fatalf("got %q, want NC+", got)
	}
}

func TestRegexStringPostcode(t *testing.T) {
	// "M1 3BE": M->U 1->N, 3->N BE->U  => U N N U -> "UN+U"
	if got := regexString("M1 3BE"); got != "UN+U" {
		t.Fatalf("got %q, want UN+U", got)
	}
}

func TestRegexStringCollapse(t *testing.T) {
	// Repeated symbols collapse with '+'.
	got := regexString("one two three")
	if got != "L+" {
		t.Fatalf("got %q, want L+", got)
	}
}

func TestRegexStringTimeRange(t *testing.T) {
	// "08:00-18:00" is one token: N P N P N P N ... with punctuation
	// separators; symbols alternate so no collapse of N P pairs. The
	// token has >3 symbols but contains P so it is not collapsed to A.
	got := regexString("08:00-18:00")
	if !strings.ContainsRune(got, 'N') || !strings.ContainsRune(got, 'P') {
		t.Fatalf("time range lost structure: %q", got)
	}
}

func TestRegexStringMixedIdentifier(t *testing.T) {
	// Long alternating alphanumerics (no punctuation) collapse to A.
	got := regexString("a1b2c3d4")
	if got != "A" {
		t.Fatalf("got %q, want A", got)
	}
}

func TestSameFormatDifferentValues(t *testing.T) {
	if regexString("M1 3BE") != regexString("M3 1NN") {
		t.Fatal("same-format postcodes should share a regex string")
	}
	if regexString("08:00-18:00") != regexString("07:00-20:00") {
		t.Fatal("same-format opening hours should share a regex string")
	}
}

func TestDifferentFormatsDiffer(t *testing.T) {
	if regexString("Blackfriars") == regexString("08:00-18:00") {
		t.Fatal("clearly different formats should not collide")
	}
}

func TestRSetDeduplicates(t *testing.T) {
	rs := rset([]string{"M1 3BE", "M3 1NN", "W1G 6BW", ""})
	// Two distinct formats expected: "UN+U" and the W1G variant "UNU U N U"?
	// W1G -> U N U ; 6BW -> N U ; joined U N U N U -> "UNUNU".
	want := map[string]bool{"UN+U": true, "UNUNU": true}
	if len(rs) != 2 {
		t.Fatalf("RSet = %v, want 2 distinct formats", rs)
	}
	for _, r := range rs {
		if !want[r] {
			t.Fatalf("unexpected format %q in %v", r, rs)
		}
	}
}

func TestRegexStringDeterministicProperty(t *testing.T) {
	f := func(s string) bool { return regexString(s) == regexString(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegexStringAlphabetProperty(t *testing.T) {
	// Output only ever contains class symbols and '+'.
	valid := map[rune]bool{'C': true, 'U': true, 'L': true, 'N': true, 'A': true, 'P': true, '+': true}
	f := func(s string) bool {
		for _, r := range regexString(s) {
			if !valid[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNoConsecutiveDuplicatesProperty(t *testing.T) {
	f := func(s string) bool {
		out := regexString(s)
		var prev rune
		for _, r := range out {
			if r != '+' && r == prev {
				return false
			}
			if r != '+' {
				prev = r
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRSetEmptyInput(t *testing.T) {
	if got := rset(nil); got != nil {
		t.Fatalf("rset(nil) = %v, want nil", got)
	}
	if got := rset([]string{"", "  "}); got != nil {
		t.Fatalf("rset(blank) = %v, want nil", got)
	}
}

// TestClassifyDirect: a token that is one homogeneous run gets the
// single class symbol of that run.
func TestClassifyDirect(t *testing.T) {
	cases := []struct {
		in   string
		want rune
	}{
		{"Hello", ClassC}, {"ABC", ClassU}, {"abc", ClassL},
		{"123", ClassN}, {"a1B2c3d4e5", ClassA}, {"..", ClassP},
	}
	for _, c := range cases {
		if got := regexString(c.in); got != string(c.want) {
			t.Errorf("regexString(%q) = %q, want %q", c.in, got, string(c.want))
		}
	}
}

func TestRegexStringsEqualForRenderedDates(t *testing.T) {
	dates := []string{"2020-11-20", "1999-01-02", "2026-06-12"}
	first := regexString(dates[0])
	for _, d := range dates[1:] {
		if regexString(d) != first {
			t.Fatalf("date formats differ: %q vs %q", regexString(d), first)
		}
	}
	if !reflect.DeepEqual(rset(dates), []string{first}) {
		t.Fatal("RSet of same-format dates should be a singleton")
	}
}
