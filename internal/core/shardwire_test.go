package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"d3l/internal/persist"
)

// gatherFixture runs one real probe → gather on a small engine and
// returns the depth directive and the partial it produced.
func gatherFixture(t testing.TB, spec QuerySpec) (*Engine, *ShardDepths, *ShardPartial) {
	t.Helper()
	lake := syntheticLake(t, 23, 34)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	target := lake.Table(4)
	probe, err := e.ShardProbeSpec(ctx, target, spec)
	if err != nil {
		t.Fatal(err)
	}
	depths, err := MergeProbeDepths([]*ShardProbe{probe})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e.ShardGatherSpec(ctx, target, spec, depths)
	if err != nil {
		t.Fatal(err)
	}
	return e, depths, partial
}

// samePartial compares two partials value for value — float64 by bit
// pattern — treating an empty cell and a nil one as the same (the
// decoder does not distinguish them; a nil Dists slice, which marks
// uniform weighting, it does).
func samePartial(a, b *ShardPartial) bool {
	if a.Meta != b.Meta || a.PairCount != b.PairCount || a.TableCount != b.TableCount {
		return false
	}
	if (a.Dists == nil) != (b.Dists == nil) || len(a.Dists) != len(b.Dists) {
		return false
	}
	for i := range a.Dists {
		for t := range a.Dists[i].Coded {
			if !slices.Equal(a.Dists[i].Coded[t], b.Dists[i].Coded[t]) {
				return false
			}
		}
		if !slices.EqualFunc(a.Dists[i].Domain, b.Dists[i].Domain, func(x, y DomainRun) bool {
			return math.Float64bits(x.Value) == math.Float64bits(y.Value) && x.Count == y.Count
		}) {
			return false
		}
	}
	// Rows hold only ints, codes and a D float64, and no D is NaN or a
	// negative zero, so DeepEqual is bit equality here.
	return reflect.DeepEqual(a.Tables, b.Tables)
}

// TestShardPartialRoundTrip sends real partials through the binary
// codec and back: ECDF-weighted (distributions), uniform (nil Dists),
// and a partial with no tables at all.
func TestShardPartialRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		spec QuerySpec
		edit func(*ShardPartial)
	}{
		{"weighted", QuerySpec{K: 8}, nil},
		{"uniform", QuerySpec{K: 8, Uniform: true}, nil},
		{"no tables", QuerySpec{K: 8}, func(p *ShardPartial) {
			p.Tables, p.TableCount, p.PairCount = []ShardTable{}, 0, 0
			clear(p.Dists)
		}},
		{"odd floats", QuerySpec{K: 8}, func(p *ShardPartial) {
			// Bit patterns a decimal round trip would not keep, and the
			// largest codes.
			rows := p.Tables[0].Rows
			rows[0].Dist.Domain = math.Float64frombits(0x3fb999999999999a) // 0.1
			rows[len(rows)-1].Dist.Domain = math.SmallestNonzeroFloat64
			rows[0].Dist.Codes = [NumCoded]uint16{uint16(p.Meta.MinHashSize), 0, uint16(p.Meta.MinHashSize), uint16(p.Meta.EmbedBits)}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, partial := gatherFixture(t, c.spec)
			if c.edit != nil {
				c.edit(partial)
			}
			if c.name == "uniform" && partial.Dists != nil {
				t.Fatal("fixture: uniform weighting shipped distributions")
			}
			if c.name == "weighted" && (len(partial.Tables) == 0 || len(partial.Dists) == 0) {
				t.Fatal("fixture: empty partial")
			}
			got, err := DecodeShardPartial(EncodeShardPartial(partial))
			if err != nil {
				t.Fatal(err)
			}
			if !samePartial(partial, got) {
				t.Fatalf("partial changed on the wire\n sent %+v\n got  %+v", partial, got)
			}
		})
	}
}

// firstCell returns a non-empty cell of p's distributions that holds at
// least n entries, preferring the coded cells: a coded cell as codes, a
// D cell as runs. It panics when p has none: the fixture is wrong.
func firstCell(p *ShardPartial, n int) ([]CodeCount, []DomainRun) {
	for i := range p.Dists {
		for _, cell := range p.Dists[i].Coded {
			if len(cell) >= n {
				return cell, nil
			}
		}
	}
	for i := range p.Dists {
		if runs := p.Dists[i].Domain; len(runs) >= n {
			return nil, runs
		}
	}
	panic(fmt.Sprintf("fixture has no cell of %d entries", n))
}

// firstColumn is the first column of p's distributions with samples.
func firstColumn(p *ShardPartial) *ColumnDists {
	for i := range p.Dists {
		if len(p.Dists[i].Domain) > 0 {
			return &p.Dists[i]
		}
	}
	panic("fixture has no column with samples")
}

// malformedPartials lists the shapes a replica (or a proxy in between)
// must not be able to crash the coordinator with, each as an edit of a
// valid partial.
var malformedPartials = []struct {
	name string
	edit func(*ShardPartial)
}{
	{"target column -1", func(p *ShardPartial) { p.Tables[0].Rows[0].TargetColumn = -1 }},
	{"target column past the target", func(p *ShardPartial) {
		rows := p.Tables[0].Rows
		rows[len(rows)-1].TargetColumn = int32(p.Meta.NumCols)
	}},
	{"table without rows", func(p *ShardPartial) { p.Tables[0].Rows = nil }},
	{"rows not ascending", func(p *ShardPartial) {
		for i := range p.Tables {
			if rows := p.Tables[i].Rows; len(rows) > 1 {
				rows[0], rows[1] = rows[1], rows[0]
				return
			}
		}
		p.Tables[0].Rows = append(p.Tables[0].Rows, p.Tables[0].Rows[0]) // duplicate column
	}},
	{"unsorted sample cell", func(p *ShardPartial) {
		codes, runs := firstCell(p, 2)
		if codes != nil {
			codes[0], codes[1] = codes[1], codes[0]
		} else {
			runs[0], runs[1] = runs[1], runs[0]
		}
	}},
	{"missing sample cell", func(p *ShardPartial) { p.Dists = p.Dists[:len(p.Dists)-1] }},
	{"no sample cells", func(p *ShardPartial) { p.Dists = nil }},
	{"table count off by one", func(p *ShardPartial) { p.TableCount++ }},
	{"negative pair count", func(p *ShardPartial) { p.PairCount = -1 }},
	{"code past the width", func(p *ShardPartial) {
		cell := firstColumn(p).Coded[EvidenceName]
		cell[len(cell)-1].Code = uint16(p.Meta.MinHashSize + 1)
	}},
	{"row code past the width", func(p *ShardPartial) {
		p.Tables[0].Rows[0].Dist.Codes[EvidenceEmbedding] = uint16(p.Meta.EmbedBits + 1)
	}},
	{"code without samples", func(p *ShardPartial) { firstColumn(p).Coded[EvidenceFormat][0].Count = 0 }},
	{"D runs not strictly ascending", func(p *ShardPartial) {
		for i := range p.Dists {
			if runs := p.Dists[i].Domain; len(runs) >= 2 {
				runs[1].Value = runs[0].Value
				return
			}
		}
		panic("fixture has no D cell of two runs")
	}},
	{"cells disagree on n", func(p *ShardPartial) { firstColumn(p).Coded[EvidenceValue][0].Count++ }},
	{"cells disagree with the pair count", func(p *ShardPartial) { p.PairCount++ }},
	{"widths off the grid", func(p *ShardPartial) { p.Meta.EmbedBits = 0 }},
	{"k of 0", func(p *ShardPartial) { p.Meta.K = 0 }},
}

// TestMergeShardPartialsRejectsMalformed feeds each malformed shape to
// the merge directly (the in-process path) and through the codec (the
// wire path): both must answer an error, neither may panic. Unchecked,
// "target column -1" indexes the distributions at -1, "table without
// rows" divides by zero and "code past the width" reads past the grid.
func TestMergeShardPartialsRejectsMalformed(t *testing.T) {
	for _, c := range malformedPartials {
		t.Run(c.name, func(t *testing.T) {
			_, depths, partial := gatherFixture(t, QuerySpec{K: 8})
			if _, _, err := MergeShardPartials(depths, []*ShardPartial{partial}); err != nil {
				t.Fatalf("fixture does not merge: %v", err)
			}
			c.edit(partial)
			if _, _, err := MergeShardPartials(depths, []*ShardPartial{partial}); err == nil {
				t.Fatal("MergeShardPartials accepted the partial")
			}
			if _, err := DecodeShardPartial(EncodeShardPartial(partial)); err == nil {
				t.Fatal("DecodeShardPartial accepted the partial")
			}
		})
	}
	t.Run("samples under uniform weighting", func(t *testing.T) {
		_, depths, partial := gatherFixture(t, QuerySpec{K: 8, Uniform: true})
		partial.Dists = make([]ColumnDists, partial.Meta.NumCols)
		if _, _, err := MergeShardPartials(depths, []*ShardPartial{partial}); err == nil {
			t.Fatal("MergeShardPartials accepted the partial")
		}
	})
}

// TestDecodeShardPartialRejectsDamage covers the envelope: truncation
// anywhere, any single flipped bit, a foreign magic or version (with a
// recomputed checksum, so it is the field that is refused), bytes
// trailing the last table, and a version 1 body, refused by version.
func TestDecodeShardPartialRejectsDamage(t *testing.T) {
	_, _, partial := gatherFixture(t, QuerySpec{K: 8})
	good := EncodeShardPartial(partial)
	for _, n := range []int{0, 3, 4, 8, 40, len(good) / 2, len(good) - 1} {
		if _, err := DecodeShardPartial(good[:n]); err == nil {
			t.Fatalf("accepted a body truncated to %d of %d bytes", n, len(good))
		}
	}
	for _, bit := range []int{0, 37, 8 * 100, 8*len(good)/2 + 3, 8*len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeShardPartial(bad); err == nil {
			t.Fatalf("accepted a body with bit %d flipped", bit)
		}
	}
	payload := good[:len(good)-4]
	for name, edit := range map[string]func([]byte) []byte{
		"magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"version":  func(b []byte) []byte { b[4]++; return b },
		"trailing": func(b []byte) []byte { return append(b, 0) },
	} {
		bad := sealShardBody(edit(append([]byte(nil), payload...)))
		if _, err := DecodeShardPartial(bad); err == nil {
			t.Fatalf("accepted a resealed body with a bad %s", name)
		}
	}
	if _, err := DecodeShardPartial(readHex(t, "testdata/shard_partial_v1.hex")); !errors.Is(err, persist.ErrVersion) {
		t.Fatalf("a version 1 body: err = %v, want persist.ErrVersion", err)
	}
}

// TestDecodeShardPartialRefusesHostileCounts forges the counts a v2
// body carries, each in place of a sentinel of the same encoded length
// in tinyPartial's bytes, resealed so the field itself is refused: a
// code or a count past its type, slab totals the cells do not match,
// and a count more elements than bytes remain could back — refused
// before anything is allocated for it.
func TestDecodeShardPartialRefusesHostileCounts(t *testing.T) {
	forge := func(edit func(*ShardPartial), sentinel, forged []byte) []byte {
		t.Helper()
		p := tinyPartial()
		if edit != nil {
			edit(p)
		}
		body := EncodeShardPartial(p)
		payload := body[:len(body)-4]
		if n := bytes.Count(payload, sentinel); n != 1 {
			t.Fatalf("sentinel %x occurs %d times in %x", sentinel, n, payload)
		}
		return sealShardBody(bytes.Replace(payload, sentinel, forged, 1))
	}
	// The distributions' header: hasDists, 2 columns, 10 codes, 3 runs.
	header := []byte{1, 2, 10, 3}
	for _, c := range []struct {
		name       string
		edit       func(*ShardPartial)
		sentinel   []byte
		forged     []byte
		wantInText string
	}{
		{"code past a uint16", func(p *ShardPartial) { p.Dists[1].Coded[EvidenceEmbedding][1].Code = math.MaxUint16 },
			binary.AppendUvarint(nil, math.MaxUint16), binary.AppendUvarint(nil, 2*math.MaxUint16+1), "overflows"},
		{"count past an int32", func(p *ShardPartial) { p.Dists[0].Domain[0].Count = math.MaxInt32 - 15 },
			binary.AppendUvarint(nil, math.MaxInt32-15), binary.AppendUvarint(nil, math.MaxUint32), "overflows"},
		{"row id past a uint32", func(p *ShardPartial) { p.Tables[1].Rows[0].AttrID = math.MaxInt32 },
			binary.AppendUvarint(nil, math.MaxInt32), binary.AppendUvarint(nil, 1<<34), "overflows"},
		{"more codes declared than shipped", nil, header, []byte{1, 2, 11, 3}, "slabs declare"},
		{"fewer codes declared than shipped", nil, header, []byte{1, 2, 9, 3}, "past its slab"},
		{"fewer runs declared than shipped", nil, header, []byte{1, 2, 10, 2}, "past its slab"},
		{"more columns than bytes", nil, header, append(binary.AppendUvarint([]byte{1}, math.MaxUint32), 10, 3), "truncated"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeShardPartial(forge(c.edit, c.sentinel, c.forged))
			if err == nil || !strings.Contains(err.Error(), c.wantInText) {
				t.Fatalf("err = %v, want one saying %q", err, c.wantInText)
			}
		})
	}
	// A table count more tables than bytes remain: a partial without
	// tables ends in its table count and row total, both zero.
	empty := tinyPartial()
	empty.Tables, empty.TableCount = nil, 0
	body := EncodeShardPartial(empty)
	payload := append(body[:len(body)-6:len(body)-6], binary.AppendUvarint(nil, math.MaxUint32)...)
	if _, err := DecodeShardPartial(sealShardBody(append(payload, 0))); !errors.Is(err, persist.ErrTruncated) {
		t.Fatalf("table count 2^32-1: err = %v, want a truncation error", err)
	}
}

// readHex reads a hex fixture, whitespace ignored.
func readHex(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyPartial is a hand-built valid partial of about a hundred bytes —
// a fuzz seed the mutator can get through quickly, unlike a real one.
// Column 0 has one pair, column 1 two.
func tinyPartial() *ShardPartial {
	return &ShardPartial{
		Meta:       ShardQueryMeta{NumCols: 2, K: 3, Budget: 50, Weights: Weights{1, 1, 1, 1, 1}, MinHashSize: 64, EmbedBits: 64, Seed: 7},
		PairCount:  3,
		TableCount: 2,
		Dists: []ColumnDists{
			{
				Coded:  [NumCoded][]CodeCount{{{3, 1}}, {{64, 1}}, {{0, 1}}, {{32, 1}}},
				Domain: []DomainRun{{0.5, 1}},
			},
			{
				Coded:  [NumCoded][]CodeCount{{{1, 1}, {5, 1}}, {{64, 2}}, {{0, 2}}, {{10, 1}, {40, 1}}},
				Domain: []DomainRun{{0.25, 1}, {1, 1}},
			},
		},
		Tables: []ShardTable{
			{TableID: 4, Name: "a", Rows: []ShardRow{
				{TargetColumn: 0, AttrID: 9, CandColumn: 1, Dist: CodedDistances{Codes: [NumCoded]uint16{3, 64, 0, 32}, Domain: 0.5}},
				{TargetColumn: 1, AttrID: 10, CandColumn: 2, Dist: CodedDistances{Codes: [NumCoded]uint16{5, 64, 0, 40}, Domain: 1}},
			}},
			{TableID: 7, Name: "b", Rows: []ShardRow{
				{TargetColumn: 1, AttrID: 15, CandColumn: 0, Dist: CodedDistances{Codes: [NumCoded]uint16{1, 64, 0, 10}, Domain: 0.25}},
			}},
		},
	}
}

// sealShardBody appends the CRC32-C trailer the decoder checks first.
func sealShardBody(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// FuzzDecodeShardPartial holds the decoder to its contract on arbitrary
// bytes: an error, or a partial that passes validate and that the merge
// scores — never a panic, and no slice sized by a count the body cannot
// back. The input is tried as a whole body and, because a mutator
// almost never forges a checksum, again as a payload under a fresh
// trailer, which is what reaches the decoder proper.
func FuzzDecodeShardPartial(f *testing.F) {
	tiny := EncodeShardPartial(tinyPartial())
	f.Add(tiny)
	f.Add(tiny[:len(tiny)-4])
	f.Add(tiny[:len(tiny)/2])
	f.Add([]byte{})
	for _, c := range malformedPartials {
		p := tinyPartial()
		c.edit(p)
		body := EncodeShardPartial(p)
		f.Add(body[:len(body)-4])
	}
	uniform := tinyPartial()
	uniform.Meta.Uniform, uniform.Dists = true, nil
	body := EncodeShardPartial(uniform)
	f.Add(body[:len(body)-4])
	v1 := readHex(f, "testdata/shard_partial_v1.hex")
	f.Add(v1[:len(v1)-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, body := range [][]byte{data, sealShardBody(append([]byte(nil), data...))} {
			p, err := DecodeShardPartial(body)
			if err != nil {
				continue
			}
			if err := p.validate(); err != nil {
				t.Fatalf("decoded partial fails validation: %v", err)
			}
			// Every element decoded took a byte of its own at least.
			slots := cap(p.Tables) + cap(p.Dists)
			for i := range p.Tables {
				slots += len(p.Tables[i].Rows)
			}
			for i := range p.Dists {
				for _, cell := range p.Dists[i].Coded {
					slots += len(cell)
				}
				slots += len(p.Dists[i].Domain)
			}
			if slots > len(body) {
				t.Fatalf("%d-byte body decoded into %d table, column, code, run and row slots", len(body), slots)
			}
			// Whatever decodes must also be safe to score.
			depths := &ShardDepths{Meta: p.Meta}
			if _, _, err := MergeShardPartials(depths, []*ShardPartial{p}); err != nil {
				t.Fatalf("validated partial does not merge: %v", err)
			}
		}
	})
}

// TestShardProbeAllocationBudget pins the probe phase's steady state in
// the style of TestQueryAllocationBudget: over prepared targets a probe
// allocates the ShardProbe, its per-column table and one count vector
// per enabled forest probe — nothing per depth, per tree or per
// candidate. The budget is that count plus slack for pool refills.
func TestShardProbeAllocationBudget(t *testing.T) {
	lake := refLake(t, 17)
	opts := DefaultOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := mustPrepare(t, e, lake.Table(3))
	tprofiles := target.profiles
	spec := QuerySpec{K: 10}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the scratch to steady state
		if _, err := e.ShardProbe(ctx, target, spec); err != nil {
			t.Fatal(err)
		}
	}
	budget := float64(2 + NumForestSlots*len(tprofiles) + 4)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.ShardProbe(ctx, target, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("steady-state shard probe allocates %.0f per query over %d columns, budget %.0f", allocs, len(tprofiles), budget)
	}
}

// TestEncodeShardPartialGolden pins "same bytes": the committed hex is
// what the encoder wrote for tinyPartial, D3SP version 2. The encoder
// sizes the body by writing it into a recycled buffer
// (TestShardWireAllocationBudgets holds it to the one allocation), and
// a body encoded after a larger one is still exactly its own.
func TestEncodeShardPartialGolden(t *testing.T) {
	want := readHex(t, "testdata/shard_partial_v2.hex")
	got := EncodeShardPartial(tinyPartial())
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeShardPartial(tinyPartial()) changed on the wire\n got  %x\n want %x", got, want)
	}
	if shardPartialVersion != 2 {
		t.Fatalf("shardPartialVersion = %d: a layout change needs a new golden, not this one", shardPartialVersion)
	}
	_, _, real := gatherFixture(t, QuerySpec{K: 8})
	large := EncodeShardPartial(real)
	if again := EncodeShardPartial(tinyPartial()); !bytes.Equal(again, want) {
		t.Fatalf("after a %d-byte body, tinyPartial encodes to %x, want %x", len(large), again, want)
	}
	if back, err := DecodeShardPartial(large); err != nil || !reflect.DeepEqual(back, real) {
		t.Fatalf("the gathered partial does not round-trip: %v", err)
	}
}

// TestShardWireAllocationBudgets pins the steady state of the three
// stations a gather partial passes, in the style of
// TestQueryAllocationBudget. A gather allocates the partial, its cell
// and table lists and the two slabs; the encoder one body; the decoder
// the same five plus its reader and one string per table name; the
// merge the ranked slice and one row copy per winner — nothing per
// sample, per row or, outside the names, per table. The budgets add
// slack for pool refills.
func TestShardWireAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("budgets this tight need sync.Pool to keep what it is given")
	}
	lake := syntheticLake(t, 17, 150)
	opts := DefaultOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := QuerySpec{K: 10}
	target := mustPrepare(t, e, lake.Table(3))
	probe, err := e.ShardProbe(ctx, target, spec)
	if err != nil {
		t.Fatal(err)
	}
	depths, err := MergeProbeDepths([]*ShardProbe{probe})
	if err != nil {
		t.Fatal(err)
	}
	var partial *ShardPartial
	gather := func() {
		if partial, err = e.ShardGather(ctx, target, spec, depths); err != nil {
			t.Fatal(err)
		}
	}
	var body []byte
	encode := func() { body = EncodeShardPartial(partial) }
	var decoded *ShardPartial
	decode := func() {
		if decoded, err = DecodeShardPartial(body); err != nil {
			t.Fatal(err)
		}
	}
	merge := func() {
		if _, _, _, err := mergeShardPartials(depths, []*ShardPartial{decoded}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the arenas to steady state
		gather()
		encode()
		decode()
		merge()
	}
	if len(partial.Tables) < 50 {
		t.Fatalf("fixture: only %d candidate tables, too few to tell per-table allocation from slack", len(partial.Tables))
	}
	for _, c := range []struct {
		name   string
		fn     func()
		budget float64
	}{
		{"ShardGather", gather, 5 + 6},
		{"EncodeShardPartial", encode, 1},
		{"DecodeShardPartial", decode, float64(len(partial.Tables)) + 6 + 2},
		{"mergeShardPartials", merge, float64(spec.K) + 1 + 6},
	} {
		if allocs := testing.AllocsPerRun(50, c.fn); allocs > c.budget {
			t.Errorf("steady-state %s allocates %.0f over %d tables, budget %.0f", c.name, allocs, len(partial.Tables), c.budget)
		} else {
			t.Logf("%s: %.0f allocations (budget %.0f, %d tables)", c.name, allocs, c.budget, len(partial.Tables))
		}
	}
}
