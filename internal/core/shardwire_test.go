package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
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
// pattern — treating an empty sample cell and a nil one as the same
// (the decoder does not distinguish them; a nil Samples slice, which
// marks uniform weighting, it does).
func samePartial(a, b *ShardPartial) bool {
	if a.Meta != b.Meta || a.PairCount != b.PairCount || a.TableCount != b.TableCount {
		return false
	}
	if (a.Samples == nil) != (b.Samples == nil) || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if len(a.Samples[i]) != len(b.Samples[i]) {
			return false
		}
		for j := range a.Samples[i] {
			if math.Float64bits(a.Samples[i][j]) != math.Float64bits(b.Samples[i][j]) {
				return false
			}
		}
	}
	// Rows hold only ints and float64 arrays, and no distance is NaN or
	// a negative zero, so DeepEqual is bit equality here.
	return reflect.DeepEqual(a.Tables, b.Tables)
}

// TestShardPartialRoundTrip sends real partials through the binary
// codec and back: ECDF-weighted (sample cells), uniform (nil Samples),
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
			for i := range p.Samples {
				p.Samples[i] = nil
			}
		}},
		{"odd floats", QuerySpec{K: 8}, func(p *ShardPartial) {
			// Bit patterns a decimal round trip would not keep.
			p.Tables[0].Rows[0].Distances[0] = math.Float64frombits(0x3fb999999999999a) // 0.1
			p.Tables[0].Rows[0].Distances[1] = math.SmallestNonzeroFloat64
			p.Tables[0].Rows[0].Distances[2] = math.Nextafter(1, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, partial := gatherFixture(t, c.spec)
			if c.edit != nil {
				c.edit(partial)
			}
			if c.name == "uniform" && partial.Samples != nil {
				t.Fatal("fixture: uniform weighting shipped sample cells")
			}
			if c.name == "weighted" && (len(partial.Tables) == 0 || len(partial.Samples) == 0) {
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
		rows[len(rows)-1].TargetColumn = p.Meta.NumCols
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
		for i := range p.Samples {
			if len(p.Samples[i]) > 1 {
				p.Samples[i][0] = 2
				return
			}
		}
		panic("fixture has no sample cell with two values")
	}},
	{"missing sample cell", func(p *ShardPartial) { p.Samples = p.Samples[:len(p.Samples)-1] }},
	{"no sample cells", func(p *ShardPartial) { p.Samples = nil }},
	{"table count off by one", func(p *ShardPartial) { p.TableCount++ }},
	{"negative pair count", func(p *ShardPartial) { p.PairCount = -1 }},
}

// TestMergeShardPartialsRejectsMalformed feeds each malformed shape to
// the merge directly (the in-process path) and through the codec (the
// wire path): both must answer an error, neither may panic. Unchecked,
// "target column -1" indexes the ECDF cells at -5 and "table without
// rows" divides by zero.
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
		partial.Samples = make([][]float64, partial.Meta.NumCols*int(NumEvidence))
		if _, _, err := MergeShardPartials(depths, []*ShardPartial{partial}); err == nil {
			t.Fatal("MergeShardPartials accepted the partial")
		}
	})
}

// TestDecodeShardPartialRejectsDamage covers the envelope: truncation
// anywhere, any single flipped bit, a foreign magic or version (with a
// recomputed checksum, so it is the field that is refused), and bytes
// trailing the last table.
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
	// A count that promises more elements than bytes remain must be
	// refused before anything is allocated for it.
	huge := append([]byte(nil), payload...)
	tablesAt := len(huge) - tablesWireBytes(partial)
	binary.LittleEndian.PutUint32(huge[tablesAt:], math.MaxUint32)
	if _, err := DecodeShardPartial(sealShardBody(huge)); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("table count 2^32-1: err = %v, want a truncation error", err)
	}
}

// tablesWireBytes is the encoded size of a partial's table section,
// count prefix included.
func tablesWireBytes(p *ShardPartial) int {
	n := 4
	for i := range p.Tables {
		n += 8 + 4 + len(p.Tables[i].Name) + 4 + len(p.Tables[i].Rows)*shardRowWireBytes
	}
	return n
}

// tinyPartial is a hand-built valid partial of a few hundred bytes —
// a fuzz seed the mutator can get through quickly, unlike a real one.
func tinyPartial() *ShardPartial {
	p := &ShardPartial{
		Meta:       ShardQueryMeta{NumCols: 2, K: 3, Budget: 50, Weights: Weights{1, 1, 1, 1, 1}},
		PairCount:  3,
		TableCount: 2,
		Samples:    make([][]float64, 2*int(NumEvidence)),
		Tables: []ShardTable{
			{TableID: 4, Name: "a", Rows: []Alignment{
				{TargetColumn: 0, AttrID: 9, CandColumn: 1, Distances: DistanceVector{0.1, 0.2, 0.3, 0.4, 0.5}},
				{TargetColumn: 1, AttrID: 10, CandColumn: 2, Distances: DistanceVector{1, 1, 0, 0.25, 0.75}},
			}},
			{TableID: 7, Name: "b", Rows: []Alignment{
				{TargetColumn: 1, AttrID: 15, CandColumn: 0, Distances: DistanceVector{0.5, 0.5, 0.5, 0.5, 0.5}},
			}},
		},
	}
	for i := range p.Samples {
		p.Samples[i] = []float64{0.25, 0.5}
	}
	return p
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
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, body := range [][]byte{data, sealShardBody(append([]byte(nil), data...))} {
			p, err := DecodeShardPartial(body)
			if err != nil {
				continue
			}
			if err := p.validate(); err != nil {
				t.Fatalf("decoded partial fails validation: %v", err)
			}
			if slots := cap(p.Tables) + cap(p.Samples); slots > len(body) {
				t.Fatalf("%d-byte body decoded into %d table and cell slots", len(body), slots)
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
// what the encoder wrote for tinyPartial, D3SP version 1. The encoder
// sizes the body by writing it into a recycled buffer
// (TestShardWireAllocationBudgets holds it to the one allocation), and
// a body encoded after a larger one is still exactly its own.
func TestEncodeShardPartialGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/shard_partial_v1.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	got := EncodeShardPartial(tinyPartial())
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeShardPartial(tinyPartial()) changed on the wire\n got  %x\n want %x", got, want)
	}
	if shardPartialVersion != 1 {
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
