package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

	"d3l/internal/datagen"
	"d3l/internal/embed"
	"d3l/internal/format"
	"d3l/internal/table"
	"d3l/internal/tokenize"
)

// referenceProfileColumn is Algorithm 1 as profileColumn ran it before
// the text path became one scan over interned word ids: every value is
// lower-cased and split twice, once for a token histogram keyed by
// string and once for Example 2's per-part refinement, and the tset and
// the embedding nominations are string sets. It is the oracle the
// rewritten path must match bit for bit.
func referenceProfileColumn(p *profiler, ref AttrRef, col *table.Column) Profile {
	prof := Profile{Ref: ref, Name: col.Name, Numeric: col.Type == table.Numeric}
	prof.QSig = p.hasher.Sketch(tokenize.QGrams(col.Name, p.opts.QGramQ))
	values := p.sampleExtent(col.NonNull())
	prof.RSig = p.hasher.Sketch(format.RSetAppend(nil, values, &format.RSetScratch{}))
	if prof.Numeric {
		prof.TSig = p.hasher.EmptySignature()
		prof.EZero = true
		prof.ESig = p.zeroESig
		if ext := col.NumericExtent(); len(ext) > 0 {
			prof.NumExtent = append([]float64(nil), ext...)
			sort.Float64s(prof.NumExtent)
		}
		return prof
	}
	counts := make(map[string]int)
	total := 0
	for _, v := range values {
		for _, w := range strings.FieldsFunc(strings.ToLower(v), refTokenSeparator) {
			counts[w]++
			total++
		}
	}
	threshold := 0.0
	if len(counts) > 0 {
		threshold = float64(total) / float64(len(counts))
	}
	tset := make(map[string]struct{})
	embedWords := make(map[string]struct{})
	for _, v := range values {
		tsetWords, embWords := refPartSignals(counts, v)
		for _, w := range tsetWords {
			tset[w] = struct{}{}
		}
		for _, w := range embWords {
			if float64(counts[w]) > threshold {
				embedWords[w] = struct{}{}
			}
		}
	}
	if len(embedWords) == 0 {
		embedWords = tset
	}
	elements := make([]string, 0, len(tset))
	for w := range tset {
		elements = append(elements, w)
	}
	prof.TSig = p.hasher.Sketch(elements)
	prof.TSize = len(tset)
	words := make([]string, 0, len(embedWords))
	for w := range embedWords {
		words = append(words, w)
	}
	sort.Strings(words)
	vec := p.model.NewScratch().Mean(words)
	prof.EZero = embed.IsZero(vec)
	prof.ESig, _ = p.planes.Sketch(vec)
	return prof
}

func refPartSeparator(r rune) bool { return strings.ContainsRune(",;:/|()[]{}\"", r) }

func refWordSeparator(r rune) bool {
	return unicode.IsSpace(r) || r == '-' || r == '.' || r == '_' || r == '\''
}

func refTokenSeparator(r rune) bool { return refPartSeparator(r) || refWordSeparator(r) }

func refNumericWord(w string) bool {
	for _, r := range w {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// refPartSignals is Example 2's refinement of one value against the
// extent's token counts: per part, the rarest word (numeric only when
// the part has nothing else) and the most common, ties to the smaller
// word.
func refPartSignals(counts map[string]int, value string) (tset, embed []string) {
	for _, part := range strings.FieldsFunc(strings.ToLower(value), refPartSeparator) {
		words := strings.FieldsFunc(part, refWordSeparator)
		if len(words) == 0 {
			continue
		}
		hasNonNum := slices.ContainsFunc(words, func(w string) bool { return !refNumericWord(w) })
		var rare string
		rareC, started := 0, false
		for _, w := range words {
			if hasNonNum && refNumericWord(w) {
				continue
			}
			if c := counts[w]; !started || c < rareC || (c == rareC && w < rare) {
				rare, rareC, started = w, c, true
			}
		}
		common, commonC := words[0], counts[words[0]]
		for _, w := range words[1:] {
			if c := counts[w]; c > commonC || (c == commonC && w < common) {
				common, commonC = w, c
			}
		}
		tset = append(tset, rare)
		embed = append(embed, common)
	}
	return tset, embed
}

// sameProfile reports the first field in which got differs from want,
// every float compared by its bits.
func sameProfile(got, want Profile) error {
	switch {
	case got.Ref != want.Ref || got.Name != want.Name || got.Numeric != want.Numeric:
		return fmt.Errorf("identity %v %q %v, want %v %q %v", got.Ref, got.Name, got.Numeric, want.Ref, want.Name, want.Numeric)
	case !slices.Equal(got.QSig, want.QSig):
		return fmt.Errorf("QSig differs")
	case !slices.Equal(got.TSig, want.TSig):
		return fmt.Errorf("TSig differs")
	case got.TSize != want.TSize:
		return fmt.Errorf("TSize %d, want %d", got.TSize, want.TSize)
	case !slices.Equal(got.RSig, want.RSig):
		return fmt.Errorf("RSig differs")
	case got.EZero != want.EZero:
		return fmt.Errorf("EZero %v, want %v", got.EZero, want.EZero)
	case !slices.Equal(got.ESig, want.ESig):
		return fmt.Errorf("ESig differs")
	case len(got.NumExtent) != len(want.NumExtent):
		return fmt.Errorf("NumExtent has %d values, want %d", len(got.NumExtent), len(want.NumExtent))
	}
	for i := range got.NumExtent {
		if math.Float64bits(got.NumExtent[i]) != math.Float64bits(want.NumExtent[i]) {
			return fmt.Errorf("NumExtent[%d] = %v, want %v", i, got.NumExtent[i], want.NumExtent[i])
		}
	}
	return nil
}

// TestProfileColumnMatchesReference profiles every column of the
// benchmark lake (the paper's Synthetic at 1 000 derived tables, seed
// 1307) through one recycled scratch, as a build worker does, and
// through the reference, and requires the two profiles to agree bit for
// bit. Then it holds the read view to the same columns: on an engine
// built over the lake and on its loaded snapshot, Engine.Profile of
// every attribute is the profile a fresh ProfileTable gives its column,
// and once a table is removed its attributes read as stubs on both.
func TestProfileColumnMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the 1 000-table benchmark lake twice")
	}
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 1307
	if raceEnabled {
		cfg.DerivedTables = 100 // the race detector slows profiling tenfold
	}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newProfiler(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scratch := &profileScratch{emb: p.model.NewMemoScratch()}
	columns := 0
	for tid, tb := range lake.Tables() {
		for c, col := range tb.Columns {
			ref := AttrRef{TableID: tid, Column: c}
			if err := sameProfile(p.profileColumn(ref, col, scratch), referenceProfileColumn(p, ref, col)); err != nil {
				t.Fatalf("table %s column %q: %v", tb.Name, col.Name, err)
			}
			columns++
		}
	}
	t.Logf("%d columns match", columns)

	e, err := BuildEngine(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadedEngine(t, e)
	for tid, tb := range lake.Tables() {
		for c, want := range p.ProfileTable(tid, tb, e.classifier) {
			id := e.byTable[tid][c]
			for name, eng := range map[string]*Engine{"built": e, "loaded": loaded} {
				got := eng.Profile(id)
				if err := sameProfile(got, want); err != nil || got.Subject != want.Subject {
					t.Fatalf("%s engine, attribute %d (table %s column %q): %v (subject %v, want %v)",
						name, id, tb.Name, want.Name, err, got.Subject, want.Subject)
				}
			}
		}
	}
	removed := lake.Table(3)
	if err := e.Remove(removed.Name); err != nil {
		t.Fatal(err)
	}
	loaded = loadedEngine(t, e)
	for c, attrID := range e.byTable[3] {
		for name, eng := range map[string]*Engine{"built": e, "loaded": loaded} {
			got := eng.Profile(attrID)
			want := Profile{Ref: AttrRef{TableID: 3, Column: c}, Name: removed.Columns[c].Name,
				Numeric: got.Numeric, Subject: got.Subject, EZero: true}
			if err := sameProfile(got, want); err != nil || got.Numeric != (removed.Columns[c].Type == table.Numeric) {
				t.Fatalf("%s engine, removed attribute %d does not read as a stub: %v", name, attrID, err)
			}
			if w := eng.embedWords(); slices.ContainsFunc(eng.embeds[attrID*w:(attrID+1)*w], func(v uint64) bool { return v != 0 }) {
				t.Fatalf("%s engine, removed attribute %d keeps its embedding", name, attrID)
			}
		}
	}
}

// fuzzPieces are the fragments FuzzProfileColumn builds values from:
// multi-byte runes, invalid UTF-8, runes whose lower case has another
// byte length (İ lowers to i, the Kelvin sign to k), the Latin-1 spaces
// U+0085 and U+00A0, part and word separators, all-digit words, and a
// few words that recur so counts tie.
var fuzzPieces = []string{
	"İ", "K", "\u0085", " ", "\xff", "\xc3", "\xe2\x82", "日本", "Straße", "ǅ",
	",", ";", " ", "-", ".", "'", "(", "/", "42", "007", "1nn", "Street", "street", "M1", "road", "oak",
	"ΣΑΣ", " ", "�", "\t", "Portland", "3BE",
}

// fuzzColumn decodes data into a column's values: a byte below 0x80 is
// itself ('\n' ends a value), a byte at or above it appends one of
// fuzzPieces.
func fuzzColumn(data []byte) []string {
	var values []string
	var b strings.Builder
	for _, c := range data {
		switch {
		case c == '\n':
			values = append(values, b.String())
			b.Reset()
		case c < 0x80:
			b.WriteByte(c)
		default:
			b.WriteString(fuzzPieces[int(c-0x80)%len(fuzzPieces)])
		}
	}
	return append(values, b.String())
}

// FuzzProfileColumn profiles random columns on a recycled scratch and
// through the reference, as text and with the type the table infers.
func FuzzProfileColumn(f *testing.F) {
	for _, seed := range []string{
		"18 Portland Street, M1 3BE\n41 Oxford Road, M13 9PL\n9 Mirabel Street, M3 1NN",
		"\x80\x81 \x82\x83\n\x84\x84,\x85\n\x86\x87",
		"alpha beta\nbeta alpha\ngamma",
		",,;;\n - \n''",
		"12 34\n56\n0078 9",
		"\x9c\x98\x99\n\x95\x9d\x9e",
		"a b\nb c\nc a",
		"\x88\x89\x8a \x8b\x80",
	} {
		f.Add([]byte(seed))
	}
	p, err := newProfiler(DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	// A plain embedding scratch: a memo would grow with every word the
	// fuzzer ever tries.
	scratch := &profileScratch{}
	f.Fuzz(func(t *testing.T, data []byte) {
		values := fuzzColumn(data)
		for _, col := range []*table.Column{
			{Name: "Fuzz Column", Values: values, Type: table.Text},
			table.NewColumn("Fuzz Column", values),
		} {
			ref := AttrRef{TableID: 1, Column: 2}
			if err := sameProfile(p.profileColumn(ref, col, scratch), referenceProfileColumn(p, ref, col)); err != nil {
				t.Fatalf("%s column %q: %v", col.Type, values, err)
			}
		}
	})
}

// refSampleExtent is sampleExtent as it was before it sampled in place:
// every k-th value copied into a fresh slice.
func refSampleExtent(max int, values []string) []string {
	if max == 0 || len(values) <= max {
		return values
	}
	out := make([]string, 0, max)
	step := float64(len(values)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, values[int(float64(i)*step)])
	}
	return out
}

// TestSampleExtentMatchesReference checks the in-place sample against
// the copying one for every extent length up to 300 under caps that
// divide it, do not, and exceed it.
func TestSampleExtentMatchesReference(t *testing.T) {
	for _, max := range []int{0, 1, 2, 3, 7, 64, 127, 128, 512} {
		p := &profiler{opts: Options{MaxExtentSample: max}}
		for n := 0; n <= 300; n++ {
			values := make([]string, n)
			for i := range values {
				values[i] = fmt.Sprint(i)
			}
			want := refSampleExtent(max, slices.Clone(values))
			if got := p.sampleExtent(values); !slices.Equal(got, want) {
				t.Fatalf("cap %d, %d values: sample %v, reference %v", max, n, got, want)
			}
		}
	}
}
