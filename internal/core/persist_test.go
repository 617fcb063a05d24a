package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"d3l/internal/persist"
	"d3l/internal/table"
)

// snapshotBytes serialises an engine into memory.
func snapshotBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadedEngine round-trips an engine through its snapshot.
func loadedEngine(t testing.TB, e *Engine) *Engine {
	t.Helper()
	le, err := LoadEngine(bytes.NewReader(snapshotBytes(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	return le
}

// TestSnapshotRoundTripFigure1 asserts Load(Snapshot(e)) answers TopK,
// BatchTopK and Explain identically to the original engine, and that
// re-snapshotting the loaded engine reproduces the snapshot bytes
// (the format is canonical: no map-order or timing nondeterminism).
func TestSnapshotRoundTripFigure1(t *testing.T) {
	e := buildFigure1Engine(t)
	data := snapshotBytes(t, e)
	le, err := LoadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	target := figure1Target(t)

	want, err := topK(e, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := topK(le, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no results on the original engine")
	}
	if rankingSignature(want, true) != rankingSignature(got, true) {
		t.Fatalf("TopK diverged after round trip:\nwant %s\ngot  %s",
			rankingSignature(want, true), rankingSignature(got, true))
	}
	for i := range want {
		if want[i].TableID != got[i].TableID {
			t.Fatalf("result %d: table id %d != %d", i, got[i].TableID, want[i].TableID)
		}
	}

	targets := []*table.Table{target, figure1Target(t)}
	wantBatch, err := e.BatchSearchSpec(context.Background(), targets, QuerySpec{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := le.BatchSearchSpec(context.Background(), targets, QuerySpec{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if rankingSignature(wantBatch[i].Ranked, true) != rankingSignature(gotBatch[i].Ranked, true) {
			t.Fatalf("batch answer %d diverged after round trip", i)
		}
	}

	wantRows, err := e.Explain(target, "S2")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := le.Explain(target, "S2")
	if err != nil {
		t.Fatal(err)
	}
	if FormatExplanation(wantRows) != FormatExplanation(gotRows) {
		t.Fatalf("Explain diverged after round trip:\nwant:\n%s\ngot:\n%s",
			FormatExplanation(wantRows), FormatExplanation(gotRows))
	}

	if e.NumAttributes() != le.NumAttributes() {
		t.Fatalf("attribute count %d != %d", le.NumAttributes(), e.NumAttributes())
	}
	if e.IndexSpaceBytes() != le.IndexSpaceBytes() {
		t.Fatalf("index space %d != %d", le.IndexSpaceBytes(), e.IndexSpaceBytes())
	}
	if !bytes.Equal(data, snapshotBytes(t, le)) {
		t.Fatal("re-snapshotting the loaded engine changed the bytes")
	}
}

// TestSnapshotRoundTripSynthetic repeats the equivalence check on a
// larger seeded lake with several targets.
func TestSnapshotRoundTripSynthetic(t *testing.T) {
	lake := syntheticLake(t, 7, 40)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	le := loadedEngine(t, e)
	for i := 0; i < lake.Len(); i += 7 {
		target := lake.Table(i)
		want, err := topK(e, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := topK(le, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		if rankingSignature(want, true) != rankingSignature(got, true) {
			t.Fatalf("target %d: rankings diverged after round trip", i)
		}
	}
}

// TestSnapshotRoundTripOptions asserts the engine configuration —
// including ablation switches — survives the round trip.
func TestSnapshotRoundTripOptions(t *testing.T) {
	opts := testOptions()
	opts.Disabled[EvidenceEmbedding] = true
	opts.Disabled[EvidenceDomain] = true
	opts.UniformEq1Weights = true
	opts.Weights = Weights{0.9, 1.7, 0.3, 1.2, 0.4}
	opts.CandidateBudget = 48
	opts.Parallelism = 2
	e, err := BuildEngine(figure1Lake(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	le := loadedEngine(t, e)
	lo := le.Options()
	if lo.Disabled != opts.Disabled {
		t.Fatalf("Disabled %v != %v", lo.Disabled, opts.Disabled)
	}
	if !lo.UniformEq1Weights {
		t.Fatal("UniformEq1Weights lost")
	}
	if lo.Weights != opts.Weights {
		t.Fatalf("Weights %v != %v", lo.Weights, opts.Weights)
	}
	if lo.CandidateBudget != opts.CandidateBudget || lo.Parallelism != opts.Parallelism {
		t.Fatalf("budget/parallelism %d/%d != %d/%d",
			lo.CandidateBudget, lo.Parallelism, opts.CandidateBudget, opts.Parallelism)
	}
	if lo.Subject == nil {
		t.Fatal("loaded engine lost the subject classifier")
	}
	if lo.Seed != opts.Seed || lo.MinHashSize != opts.MinHashSize {
		t.Fatal("hash-family parameters lost")
	}
	want, err := topK(e, figure1Target(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := topK(le, figure1Target(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(want, true) != rankingSignature(got, true) {
		t.Fatal("ablated rankings diverged after round trip")
	}
}

// TestSnapshotPreservesTombstones asserts removed tables stay removed
// across the round trip: ids stable, names free for reuse, no
// candidates from dead attributes.
func TestSnapshotPreservesTombstones(t *testing.T) {
	lake := syntheticLake(t, 11, 24)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	removed := []string{lake.Table(3).Name, lake.Table(10).Name, lake.Table(17).Name}
	for _, name := range removed {
		if err := e.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	le := loadedEngine(t, e)
	for tid := 0; tid < lake.Len(); tid++ {
		if e.AliveTable(tid) != le.AliveTable(tid) {
			t.Fatalf("table %d liveness diverged", tid)
		}
	}
	target := lake.Table(1)
	want, err := topK(e, target, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := topK(le, target, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(want, true) != rankingSignature(got, true) {
		t.Fatal("post-remove rankings diverged after round trip")
	}
	// The freed name must be reusable on both engines, with the same
	// new table id.
	fresh := mustTable(t, removed[0],
		[]string{"Practice", "City"},
		[][]string{{"Blackfriars", "Salford"}, {"Radclife Care", "Manchester"}})
	fresh2 := mustTable(t, removed[0],
		[]string{"Practice", "City"},
		[][]string{{"Blackfriars", "Salford"}, {"Radclife Care", "Manchester"}})
	wantID, err := e.Add(fresh)
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := le.Add(fresh2)
	if err != nil {
		t.Fatal(err)
	}
	if wantID != gotID {
		t.Fatalf("post-load Add assigned id %d, original %d", gotID, wantID)
	}
}

// TestLoadedEngineAcceptsMutations asserts a loaded replica keeps
// answering identically to the original as both absorb the same
// mutation stream (the "query-identical including after post-load
// mutations" property).
func TestLoadedEngineAcceptsMutations(t *testing.T) {
	lake := syntheticLake(t, 5, 20)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	le := loadedEngine(t, e)

	add := mustTable(t, "post_load_add",
		[]string{"Practice", "City", "Postcode", "Payment"},
		[][]string{
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
		})
	add2 := mustTable(t, "post_load_add",
		[]string{"Practice", "City", "Postcode", "Payment"},
		[][]string{
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
		})
	if _, err := e.Add(add); err != nil {
		t.Fatal(err)
	}
	if _, err := le.Add(add2); err != nil {
		t.Fatal(err)
	}
	victim := lake.Table(4).Name
	if err := e.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := le.Remove(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i += 5 {
		target := lake.Table(i)
		want, err := topK(e, target, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := topK(le, target, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rankingSignature(want, true) != rankingSignature(got, true) {
			t.Fatalf("target %d: mutated engines diverged", i)
		}
	}
}

// TestLoadRejectsCorruption asserts truncated and bit-flipped
// snapshots fail with an error — never a panic, never a silently wrong
// engine.
func TestLoadRejectsCorruption(t *testing.T) {
	e := buildFigure1Engine(t)
	data := snapshotBytes(t, e)

	cuts := []int{0, 1, 7, 8, 11, 12, 20, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1}
	for n := 64; n < len(data); n += 4097 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if n < 0 || n >= len(data) {
			continue
		}
		if _, err := LoadEngine(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", n)
		}
	}

	flips := []int{0, 5, 8, 9, 12, 13, 20, 40, len(data) / 2, len(data) - 2}
	for i := 16; i < len(data); i += 997 {
		flips = append(flips, i)
	}
	for _, i := range flips {
		if i < 0 || i >= len(data) {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := LoadEngine(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d loaded successfully", i)
		}
	}
}

// TestSnapshotConcurrentWithMutations takes snapshots while Add/Remove
// and query traffic is in flight; every snapshot must be a loadable,
// internally consistent image (run under -race in CI).
func TestSnapshotConcurrentWithMutations(t *testing.T) {
	lake := syntheticLake(t, 3, 16)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn_%d", i)
			tb, err := table.New(name,
				[]string{"Practice", "City", "Payment"},
				[][]string{
					{"Blackfriars", "Salford", "15530"},
					{"Radclife Care", "Manchester", "20081"},
				})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Add(tb); err != nil {
				t.Error(err)
				return
			}
			if err := e.Remove(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := topK(e, target, 5); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		le, err := LoadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("snapshot %d unloadable: %v", i, err)
		}
		if _, err := topK(le, target, 5); err != nil {
			t.Fatalf("snapshot %d: loaded engine query failed: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCompactPreservesQueries asserts Compact leaves rankings,
// alignments and ids untouched while never growing the index, and that
// the engine keeps accepting mutations afterwards.
func TestCompactPreservesQueries(t *testing.T) {
	lake := syntheticLake(t, 13, 30)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 30; i += 3 {
		if err := e.Remove(lake.Table(i).Name); err != nil {
			t.Fatal(err)
		}
	}
	target := lake.Table(0)
	before, err := topK(e, target, 10)
	if err != nil {
		t.Fatal(err)
	}
	spaceBefore := e.IndexSpaceBytes()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := topK(e, target, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(before, true) != rankingSignature(after, true) {
		t.Fatal("Compact changed query results")
	}
	if e.IndexSpaceBytes() > spaceBefore {
		t.Fatalf("Compact grew the index: %d > %d", e.IndexSpaceBytes(), spaceBefore)
	}
	// Compacted forests must be exactly what a fresh build over the
	// live attributes produces: snapshot equality is the strongest
	// check (it covers tree layout byte for byte).
	le := loadedEngine(t, e)
	got, err := topK(le, target, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(after, true) != rankingSignature(got, true) {
		t.Fatal("snapshot of compacted engine diverged")
	}
	tb := mustTable(t, "post_compact",
		[]string{"Practice", "City"},
		[][]string{{"Blackfriars", "Salford"}})
	if _, err := e.Add(tb); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("post_compact"); err != nil {
		t.Fatal(err)
	}
}

// TestSetParallelismOverridesSnapshot: the snapshot persists the
// build-time Parallelism, but serving hosts override it without
// touching results — concurrency is host policy, rankings are not.
func TestSetParallelismOverridesSnapshot(t *testing.T) {
	opts := testOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(syntheticLake(t, 23, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	le := loadedEngine(t, e)
	if got := le.Options().Parallelism; got != 1 {
		t.Fatalf("snapshot Parallelism = %d, want 1", got)
	}
	target := e.Lake().Table(2)
	want, err := topK(le, target, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := le.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	if got := le.Options().Parallelism; got != 4 {
		t.Fatalf("Parallelism after override = %d, want 4", got)
	}
	got, err := topK(le, target, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(want, true) != rankingSignature(got, true) {
		t.Fatal("parallelism override changed rankings")
	}
	if err := le.SetParallelism(-1); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

// The version 1 fixture, testdata/snapshot_v1.d3l, was written by the
// last commit whose signatures were []uint64 (a7c1cef, "PR 18"), with
// this test dropped into that commit's internal/core and run once:
//
//	func TestWriteSnapshotV1Fixture(t *testing.T) {
//		e, err := BuildEngine(figure1Lake(t), v1FixtureOptions())
//		if err != nil {
//			t.Fatal(err)
//		}
//		if err := e.Remove("N2"); err != nil {
//			t.Fatal(err)
//		}
//		if err := os.WriteFile(os.Getenv("OUT"), snapshotBytes(t, e), 0o644); err != nil {
//			t.Fatal(err)
//		}
//	}
//
// It cannot be regenerated from this tree (which writes version 2) and
// must not be: it stands for every snapshot already on disk.
const v1FixturePath = "testdata/snapshot_v1.d3l"

// v1FixtureOptions are the options the fixture was built with: small
// sketches keep it at 16 kB.
func v1FixtureOptions() Options {
	o := testOptions()
	o.MinHashSize, o.ForestTrees, o.ForestHashes, o.EmbedBits = 32, 4, 8, 64
	return o
}

// v1FixtureEngine builds, from this tree's code, the engine the fixture
// is a snapshot of.
func v1FixtureEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := BuildEngine(figure1Lake(t), v1FixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("N2"); err != nil {
		t.Fatal(err)
	}
	return e
}

// withVersion returns a copy of a snapshot claiming another format
// version, its trailer recomputed so nothing else differs.
func withVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[8:], v)
	return reseal(out)
}

// reseal rewrites, in place, a snapshot's last four bytes to the CRC32-C
// of what precedes them.
func reseal(data []byte) []byte { return sealShardBody(data[:len(data)-4]) }

// TestSnapshotV1StillLoads is the compatibility contract of the format
// bump: a version 1 snapshot (64-bit MinHash slots) loads, answers every
// table of its lake — and an outside target — bit for bit like an engine
// built from scratch by this tree, re-snapshots as version 2 to the very
// bytes that fresh engine snapshots to, and those bytes round-trip
// unchanged. A version this build does not know is still ErrVersion.
func TestSnapshotV1StillLoads(t *testing.T) {
	v1, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := persist.NewDecoder(v1); err != nil {
		t.Fatal(err)
	} else if dec.Version() != 1 {
		t.Fatalf("fixture is a version %d snapshot, want 1", dec.Version())
	}
	old, err := LoadEngine(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	fresh := v1FixtureEngine(t)

	targets := append(figure1Lake(t).Tables(), figure1Target(t))
	for _, target := range targets {
		want, err := topK(fresh, target, len(targets))
		if err != nil {
			t.Fatal(err)
		}
		got, err := topK(old, target, len(targets))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("target %s: no results on the fresh engine", target.Name)
		}
		if rankingSignature(want, true) != rankingSignature(got, true) {
			t.Fatalf("target %s: the version 1 snapshot answers differently:\nwant %s\ngot  %s",
				target.Name, rankingSignature(want, true), rankingSignature(got, true))
		}
	}

	// Numeric attributes share the hasher's one empty TSig, loaded or built.
	for _, e := range []*Engine{old, fresh} {
		empty, numeric := e.prof.hasher.EmptySignature(), 0
		for i := range e.profiles {
			if p := &e.profiles[i]; p.Numeric && len(p.TSig) > 0 {
				numeric++
				if &p.TSig[0] != &empty[0] {
					t.Fatalf("numeric attribute %q holds its own placeholder TSig", p.Name)
				}
			}
		}
		if numeric == 0 {
			t.Fatal("fixture lake has no live numeric attribute")
		}
	}

	v2 := snapshotBytes(t, old)
	if dec, err := persist.NewDecoder(v2); err != nil {
		t.Fatal(err)
	} else if dec.Version() != 2 {
		t.Fatalf("re-snapshot is a version %d snapshot, want 2", dec.Version())
	}
	if len(v2) >= len(v1) {
		t.Fatalf("version 2 snapshot is %d bytes, version 1 was %d", len(v2), len(v1))
	}
	if !bytes.Equal(v2, snapshotBytes(t, fresh)) {
		t.Fatal("the loaded version 1 engine and a fresh build snapshot to different bytes")
	}
	again, err := LoadEngine(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2, snapshotBytes(t, again)) {
		t.Fatal("version 2 snapshot does not round-trip to the same bytes")
	}

	if _, err := LoadEngine(bytes.NewReader(withVersion(v2, 3))); !errors.Is(err, persist.ErrVersion) {
		t.Fatalf("version 3: err = %v, want ErrVersion", err)
	}
	// A version 2 body under a version 1 header (and the reverse) is a
	// different byte layout, not a readable snapshot.
	if _, err := LoadEngine(bytes.NewReader(withVersion(v2, 1))); err == nil {
		t.Fatal("version 2 body read as version 1")
	}
	if _, err := LoadEngine(bytes.NewReader(withVersion(v1, 2))); err == nil {
		t.Fatal("version 1 body read as version 2")
	}
}

// TestLoadRejectsAbsurdSketchWidths: the hash machinery is rebuilt from
// the options at load time, so a snapshot declaring a terabyte-wide
// MinHash family (FuzzLoadEngine's first find) is refused as corrupt
// before anything is sized by it.
func TestLoadRejectsAbsurdSketchWidths(t *testing.T) {
	data := snapshotBytes(t, v1FixtureEngine(t))
	// MinHashSize is the first value of the first section: 12 bytes of
	// header, then the section's 4-byte id and 8-byte length.
	const minHashSizeOff = 12 + 4 + 8
	if got := binary.LittleEndian.Uint64(data[minHashSizeOff:]); got != uint64(v1FixtureOptions().MinHashSize) {
		t.Fatalf("offset %d holds %d, not MinHashSize", minHashSizeOff, got)
	}
	binary.LittleEndian.PutUint64(data[minHashSizeOff:], 1<<40)
	if _, err := LoadEngine(bytes.NewReader(reseal(data))); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("MinHashSize 2^40: err = %v, want ErrCorrupt", err)
	}
}

// FuzzLoadEngine feeds LoadEngine hostile bytes, seeded with one
// snapshot of each readable version: the outcome is an error or an
// engine that answers a query, never a panic, and never allocations out
// of proportion to the input. The CRC trailer stops nearly every
// mutation at the door, so each input is also tried resealed, which
// puts the section decoders behind it in reach.
func FuzzLoadEngine(f *testing.F) {
	v1, err := os.ReadFile(v1FixturePath)
	if err != nil {
		f.Fatal(err)
	}
	old, err := LoadEngine(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(snapshotBytes(f, old))
	target := figure1Target(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, reseal(append([]byte(nil), data...)))
		}
		for _, in := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, err := LoadEngine(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			// Every decoded count is checked against the bytes that
			// remain, so a load allocates a small multiple of its input
			// (io.ReadAll's growth, 4-byte ids and slots widening into
			// structs) plus the hash machinery its options name, which
			// decodeOptions caps.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(in)+8<<20); grew > limit {
				t.Fatalf("LoadEngine allocated %d bytes for a %d-byte input (limit %d)", grew, len(in), limit)
			}
			if err != nil {
				continue
			}
			if _, err := topK(e, target, 3); err != nil {
				t.Fatalf("loaded engine cannot answer: %v", err)
			}
		}
	})
}
