package table

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary (frequently malformed) CSV input to the
// table reader: it must either return a table satisfying the package
// invariants or an error — never panic. Open-data lakes are full of
// ragged, quoted, and truncated files, and this is the boundary where
// they enter the system.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,c\n1,2,3\n")
	f.Add("a,b\n1\n1,2,3,4\n")                 // ragged rows both ways
	f.Add("\"unclosed quote\na,b\n")           // malformed quoting
	f.Add("a,a,a\nx,y,z\n")                    // duplicate headers
	f.Add("name,name,name_2,name\nw,x,y,z\n")  // dedup collides with a real name_2
	f.Add("\n")                                // 1-byte tombstone stub (the old SaveLakeDir bug)
	f.Add("")                                  // empty input
	f.Add("\n\n\n")                            // blank records
	f.Add("a;b\r\n1;2\r\n")                    // CRLF, wrong delimiter
	f.Add("col\n" + strings.Repeat("v\n", 50)) // long single column
	f.Add("a,b\n\"x\"\"y\",2\n")               // escaped quotes
	f.Add("\xef\xbb\xbfa,b\n1,2\n")            // BOM
	f.Add("a,\xff\xfe\n\x00,2\n")              // junk bytes
	f.Fuzz(func(t *testing.T, data string) {
		tab, err := ReadCSV(strings.NewReader(data), "fuzz")
		if err != nil {
			return // malformed input must error, and it did
		}
		if tab.Arity() == 0 {
			t.Fatalf("ReadCSV accepted %q but produced a table with no columns", data)
		}
		rows := tab.Rows()
		seen := make(map[string]bool, tab.Arity())
		for _, c := range tab.Columns {
			if len(c.Values) != rows {
				t.Fatalf("ReadCSV(%q): column %q has %d values, table has %d rows", data, c.Name, len(c.Values), rows)
			}
			// Ingest disambiguates duplicate headers; uniqueness is what
			// lets the update path diff columns by name.
			if seen[c.Name] {
				t.Fatalf("ReadCSV(%q): duplicate column name %q survived ingest", data, c.Name)
			}
			seen[c.Name] = true
		}
		// The parsed table must survive the rest of the pipeline's
		// basic accessors without panicking.
		_ = tab.DataBytes()
		_ = tab.NumericColumnFraction()
		for _, c := range tab.Columns {
			_ = c.NonNull()
			_ = c.NullFraction()
			_ = c.DistinctFraction()
			if c.Type == Numeric && c.NumericExtent() == nil {
				t.Fatalf("ReadCSV(%q): numeric column %q with nil extent", data, c.Name)
			}
		}
	})
}

// FuzzStartsNumber holds parseNumber's first-byte guard to its one
// promise: it says "no" only where strconv.ParseFloat errs, so a cell is
// typed exactly as it was when every cell went to ParseFloat. (The
// converse is not promised: "+" and "nope" pass the guard and are
// refused behind it.)
func FuzzStartsNumber(f *testing.F) {
	for _, s := range []string{
		".5", "+1", "-0", "Inf", "-inf", "+Infinity", "nan", "NaN", "0x1p-2", "0X_1P4", "1e9", "1_000", "7",
		"١٢", "∞", "£", "", " ", "e9", "x1", "_1", "+", "nope", "Manchester", "\x00", "\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := strconv.ParseFloat(s, 64); err == nil && !startsNumber(s) {
			t.Fatalf("startsNumber refuses %q, which ParseFloat accepts", s)
		}
		// Through the whole of parseNumber, currency signs, percent
		// signs and separators included.
		want, wantErr := referenceParseNumber(s)
		got, err := parseNumber(s)
		if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%q) = %v, %v; without the guard %v, %v", s, got, err, want, wantErr)
		}
	})
}

// referenceParseNumber is parseNumber as it was before the guard.
func referenceParseNumber(s string) (float64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "£")
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimPrefix(s, "€")
	s = strings.TrimSuffix(s, "%")
	s = strings.ReplaceAll(s, ",", "")
	return strconv.ParseFloat(s, 64)
}

// TestParseNumberRefusesTextWithoutAllocating pins what the guard is
// for: a text cell costs no *NumError.
func TestParseNumberRefusesTextWithoutAllocating(t *testing.T) {
	for _, cell := range []string{"Manchester", "£", "∞", "١٢", "", "  M3 6AF "} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := parseNumber(cell); err == nil {
				t.Fatalf("parseNumber accepted %q", cell)
			}
		}); allocs != 0 {
			t.Fatalf("parseNumber(%q) allocates %.0f times to say no", cell, allocs)
		}
	}
}
