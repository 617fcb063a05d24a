package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"d3l/internal/persist"
	"d3l/internal/table"
)

// snapshotBytes serialises an engine into memory.
func snapshotBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := persist.NewEncoder(&buf)
	e.AppendSnapshot(enc)
	if err := enc.Close(); err != nil {
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

// TestSnapshotRoundTripFigure1 asserts Load(Snapshot(e)) answers
// single and batched searches and explanations identically to the original engine, and that
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
		t.Fatalf("search diverged after round trip:\nwant %s\ngot  %s",
			rankingSignature(want, true), rankingSignature(got, true))
	}
	for i := range want {
		if want[i].TableID != got[i].TableID {
			t.Fatalf("result %d: table id %d != %d", i, got[i].TableID, want[i].TableID)
		}
	}

	targets := []*table.Table{target, figure1Target(t)}
	wantBatch, err := batchSearch(context.Background(), e, targets, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := batchSearch(context.Background(), le, targets, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if rankingSignature(wantBatch[i].Ranked, true) != rankingSignature(gotBatch[i].Ranked, true) {
			t.Fatalf("batch answer %d diverged after round trip", i)
		}
	}

	wantRows, err := explain(e, target, "S2")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := explain(le, target, "S2")
	if err != nil {
		t.Fatal(err)
	}
	if FormatExplanation(wantRows) != FormatExplanation(gotRows) {
		t.Fatalf("explanation diverged after round trip:\nwant:\n%s\ngot:\n%s",
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

// TestSnapshotRoundTripOptions asserts a snapshot carries exactly the
// build options: every field but Parallelism, a property of the serving
// host that a loaded engine starts at 0. Every carried field is set off
// its default, and the loaded engine answers like the original under
// per-query masks and weightings.
func TestSnapshotRoundTripOptions(t *testing.T) {
	opts := Options{
		MinHashSize:     128,
		Threshold:       0.6,
		QGramQ:          3,
		ForestTrees:     4,
		ForestHashes:    16,
		EmbedBits:       128,
		Seed:            12345,
		MaxExtentSample: 96,
		Parallelism:     2,
	}
	e, err := BuildEngine(figure1Lake(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	le := loadedEngine(t, e)
	got := le.opts
	if got.Subject == nil || !reflect.DeepEqual(got.Subject.Model(), e.classifier.Model()) {
		t.Fatal("loaded engine lost the subject classifier")
	}
	got.Subject = nil
	want := opts
	want.Parallelism = 0
	if got != want {
		t.Fatalf("loaded options %+v, want %+v", got, want)
	}
	mask := [NumEvidence]bool{EvidenceEmbedding: true, EvidenceDomain: true}
	w := Weights{0.9, 1.7, 0.3, 1.2, 0.4}
	for _, spec := range []QuerySpec{
		{K: 5},
		{K: 5, Disabled: &mask, Uniform: true, Weights: &w, CandidateBudget: 48},
	} {
		want, err := e.SearchSpec(context.Background(), figure1Target(t), spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := le.SearchSpec(context.Background(), figure1Target(t), spec)
		if err != nil {
			t.Fatal(err)
		}
		if rankingSignature(want.Ranked, true) != rankingSignature(got.Ranked, true) {
			t.Fatalf("spec %+v: rankings diverged after round trip", spec)
		}
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
// engine — of the same class whether read into memory or decoded from a
// file, and that a file ending before the size it was opened with is
// ErrTruncated.
func TestLoadRejectsCorruption(t *testing.T) {
	e := buildFigure1Engine(t)
	data := snapshotBytes(t, e)
	path := filepath.Join(t.TempDir(), "corrupt.d3l")
	refuse := func(what string, in []byte, want error) {
		t.Helper()
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errMem := LoadEngine(bytes.NewReader(in))
		_, errFile := loadEngineFile(path)
		if !errors.Is(errMem, want) || !errors.Is(errFile, want) {
			t.Fatalf("%s: LoadEngine err = %v, from the file err = %v; want %v", what, errMem, errFile, want)
		}
	}

	cuts := []int{0, 1, 7, 8, 11, 12, 20, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1}
	for n := 64; n < len(data); n += 4097 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if n < 0 || n >= len(data) {
			continue
		}
		want := persist.ErrChecksum
		if n < 16 { // shorter than the header and the trailer
			want = persist.ErrTruncated
		}
		refuse(fmt.Sprintf("truncation to %d bytes", n), data[:n], want)
		// The file ends at n bytes, though Stat reported all of them:
		// before the checksum pass, or after it, under the section readers
		// (which never read the trailer).
		short := &shortSource{data: data, stop: int64(n)}
		if _, err := persist.NewDecoder(short, int64(len(data))); !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("a file ending at %d of its %d bytes: err = %v, want ErrTruncated", n, len(data), err)
		}
		if n >= len(data)-4 {
			continue
		}
		short.stop = int64(len(data))
		dec, err := persist.NewDecoder(short, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		short.stop = int64(n)
		if _, err := DecodeEngine(dec); !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("a file cut to %d of its %d bytes after the checksum pass: err = %v, want ErrTruncated", n, len(data), err)
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
		want := persist.ErrChecksum
		if i < len(persist.Magic) {
			want = persist.ErrMagic
		}
		refuse(fmt.Sprintf("bit flip at offset %d", i), mut, want)
	}
}

// loadEngineFile is LoadEngine of a file decoded where it lies, as
// d3l.LoadFile reads one.
func loadEngineFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	dec, err := persist.NewDecoder(f, st.Size())
	if err != nil {
		return nil, err
	}
	return DecodeEngine(dec)
}

// shortSource is a ReaderAt that ends at stop, whatever size its reader
// was told: a file truncated after it was sized.
type shortSource struct {
	data []byte
	stop int64
}

func (s *shortSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= s.stop {
		return 0, io.EOF
	}
	n := copy(p, s.data[off:s.stop])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
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
		le, err := LoadEngine(bytes.NewReader(snapshotBytes(t, e)))
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

// TestSetParallelismKeepsRankings: a snapshot carries no Parallelism,
// so a loaded engine starts at 0 whatever the build used, and serving
// hosts set it without touching results — concurrency is host policy,
// rankings are not.
func TestSetParallelismKeepsRankings(t *testing.T) {
	opts := testOptions()
	opts.Parallelism = 1
	e, err := BuildEngine(syntheticLake(t, 23, 16), opts)
	if err != nil {
		t.Fatal(err)
	}
	le := loadedEngine(t, e)
	if got := le.opts.Parallelism; got != 0 {
		t.Fatalf("loaded Parallelism = %d, want 0", got)
	}
	target := e.Lake().Table(2)
	want, err := topK(le, target, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := le.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	if got := le.opts.Parallelism; got != 4 {
		t.Fatalf("Parallelism after SetParallelism(4) = %d, want 4", got)
	}
	got, err := topK(le, target, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(want, true) != rankingSignature(got, true) {
		t.Fatal("SetParallelism changed rankings")
	}
	if err := le.SetParallelism(-1); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

// The version 1 fixture, testdata/snapshot_v1.d3l, was written by the
// last commit whose signatures were []uint64 (a7c1cef), the version 2
// fixture, testdata/snapshot_v2.d3l, by the last commit that stored a
// copy of every signature per profile (26a1714), the version 5 fixture,
// testdata/snapshot_v5.d3l, by the last commit that wrote every number
// at a fixed width (637a224), the version 6 fixture,
// testdata/snapshot_v6.d3l, by the commit that introduced version 6
// (5ab763e), and the version 7 fixture, testdata/snapshot_v7.d3l, by
// the change that introduced version 7, each with this test dropped
// into that tree's internal/core and run once:
//
//	func TestWriteSnapshotFixture(t *testing.T) {
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
// None must be regenerated: they stand for every snapshot already on
// disk. The first four are refused by version; the version 7 fixture
// pins the bytes this tree writes and reads.
const (
	v1FixturePath = "testdata/snapshot_v1.d3l"
	v2FixturePath = "testdata/snapshot_v2.d3l"
	v5FixturePath = "testdata/snapshot_v5.d3l"
	v6FixturePath = "testdata/snapshot_v6.d3l"
	v7FixturePath = "testdata/snapshot_v7.d3l"
)

// v1FixtureOptions are the options the fixtures were built with: small
// sketches keep them at 10–16 kB.
func v1FixtureOptions() Options {
	o := testOptions()
	o.MinHashSize, o.ForestTrees, o.ForestHashes, o.EmbedBits = 32, 4, 8, 64
	return o
}

// v1FixtureEngine builds, from this tree's code, the engine the fixtures
// are snapshots of.
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

// checkSameEngine fails unless a and b hold the same decoded state: the
// lake's shape, every record field (signature ids, extent values by
// their bits), the embeddings, the signature table, the per-table
// attribute lists, subjects and liveness, and the forests' shapes.
func checkSameEngine(t testing.TB, a, b *Engine, label string) {
	t.Helper()
	if a.lake.Len() != b.lake.Len() || len(a.attrs) != len(b.attrs) {
		t.Fatalf("%s: %d and %d tables, %d and %d attributes", label, a.lake.Len(), b.lake.Len(), len(a.attrs), len(b.attrs))
	}
	for tid := range a.lake.Len() {
		ta, tb := a.lake.Table(tid), b.lake.Table(tid)
		if ta.Name != tb.Name || len(ta.Columns) != len(tb.Columns) || a.alive[tid] != b.alive[tid] ||
			a.subjects[tid] != b.subjects[tid] || !slices.Equal(a.byTable[tid], b.byTable[tid]) {
			t.Fatalf("%s: table %d differs", label, tid)
		}
		for c := range ta.Columns {
			if ca, cb := ta.Columns[c], tb.Columns[c]; ca.Name != cb.Name || ca.Type != cb.Type {
				t.Fatalf("%s: table %d column %d differs", label, tid, c)
			}
		}
	}
	for i := range a.attrs {
		ra, rb := &a.attrs[i], &b.attrs[i]
		same := ra.name == rb.name && ra.table == rb.table && ra.column == rb.column && ra.tSize == rb.tSize &&
			ra.q == rb.q && ra.t == rb.t && ra.r == rb.r && ra.flags == rb.flags && sameFloatBits(ra.extent, rb.extent)
		if !same {
			t.Fatalf("%s: attribute %d (%s) differs", label, i, ra.name)
		}
	}
	if !slices.Equal(a.embeds, b.embeds) {
		t.Fatalf("%s: the embeddings differ", label)
	}
	if len(a.sigs.sigs) != len(b.sigs.sigs) || !slices.Equal(a.sigs.refs, b.sigs.refs) {
		t.Fatalf("%s: signature tables of %d and %d ids", label, len(a.sigs.sigs), len(b.sigs.sigs))
	}
	for id := range a.sigs.sigs {
		if !slices.Equal(a.sigs.sigs[id], b.sigs.sigs[id]) {
			t.Fatalf("%s: signature %d differs", label, id)
		}
	}
	ea, ka := a.ForestShapes()
	if eb, kb := b.ForestShapes(); ea != eb || ka != kb {
		t.Fatalf("%s: forest shapes %v/%v and %v/%v", label, ea, ka, eb, kb)
	}
}

// sigIDs renders the signature ids every record holds, for comparing
// two engines' id assignments.
func sigIDs(e *Engine) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var b strings.Builder
	for i := range e.attrs {
		a := &e.attrs[i]
		fmt.Fprintf(&b, "%d:%d/%d/%d ", i, a.q, a.t, a.r)
	}
	return b.String()
}

// readFixture reads a committed snapshot and checks its format version.
func readFixture(t testing.TB, path string, version uint32) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(data[8:]); got != version {
		t.Fatalf("%s is a version %d snapshot, want %d", path, got, version)
	}
	return data
}

// checkRefused fails unless LoadEngine refuses data as ErrVersion naming
// version.
func checkRefused(t *testing.T, data []byte, version uint32) {
	t.Helper()
	_, err := LoadEngine(bytes.NewReader(data))
	if !errors.Is(err, persist.ErrVersion) || !strings.Contains(err.Error(), fmt.Sprintf("version: %d (", version)) {
		t.Fatalf("version %d snapshot: err = %v, want ErrVersion naming version %d", version, err, version)
	}
}

// TestSnapshotV1IsRefused: a version 1 snapshot (64-bit MinHash slots)
// is refused as ErrVersion naming version 1, and its body under the
// current header does not read either.
func TestSnapshotV1IsRefused(t *testing.T) {
	v1 := readFixture(t, v1FixturePath, 1)
	checkRefused(t, v1, 1)
	if _, err := LoadEngine(bytes.NewReader(withVersion(v1, persist.Version))); err == nil {
		t.Fatalf("version 1 body read as version %d", persist.Version)
	}
}

// TestSnapshotV2IsRefused: a version 2 snapshot (a copy of every
// signature per profile) is refused as ErrVersion naming version 2, and
// its body under the current header does not read either: it holds no
// signature table.
func TestSnapshotV2IsRefused(t *testing.T) {
	v2 := readFixture(t, v2FixturePath, 2)
	checkRefused(t, v2, 2)
	if _, err := LoadEngine(bytes.NewReader(withVersion(v2, persist.Version))); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("version 2 body read as version %d: err = %v, want ErrCorrupt (no signature table)", persist.Version, err)
	}
}

// TestSnapshotV5IsRefused: a version 5 snapshot (every number at a
// fixed width) is refused as ErrVersion naming version 5, and so are
// its body under a version 3 and a version 4 header, whose layouts this
// build reads no more than version 5's; the body does not read under
// the current header either, nor the current body under a version 5 or
// a future header.
func TestSnapshotV5IsRefused(t *testing.T) {
	v5 := readFixture(t, v5FixturePath, 5)
	checkRefused(t, v5, 5)
	for _, v := range []uint32{3, 4} {
		checkRefused(t, withVersion(v5, v), v)
	}
	if _, err := LoadEngine(bytes.NewReader(withVersion(v5, persist.Version))); err == nil {
		t.Fatalf("version 5 body read as version %d", persist.Version)
	}
	v7 := readFixture(t, v7FixturePath, persist.Version)
	checkRefused(t, withVersion(v7, 5), 5)
	checkRefused(t, withVersion(v7, persist.Version+1), persist.Version+1)
}

// TestSnapshotV6IsRefused: a version 6 snapshot (query parameters and
// parallelism in its options section) is refused as ErrVersion naming
// version 6, and so is the current body under a version 6 header.
func TestSnapshotV6IsRefused(t *testing.T) {
	checkRefused(t, readFixture(t, v6FixturePath, 6), 6)
	checkRefused(t, withVersion(readFixture(t, v7FixturePath, persist.Version), 6), 6)
}

// TestSnapshotV7FixtureLoads pins the one layout this build reads to
// bytes a build wrote before: the committed version 7 snapshot of
// v1FixtureEngine loads; answers every table of its lake, and an outside
// target, bit for bit like an engine built from scratch by this tree;
// holds each signature under the id that engine gives it, and numeric
// attributes share the signature table's one empty TSig, loaded or
// built; re-snapshots to the very bytes of the file, as the fresh engine
// does; and a load of that re-snapshot is the engine the file loaded
// into.
func TestSnapshotV7FixtureLoads(t *testing.T) {
	file := readFixture(t, v7FixturePath, persist.Version)
	e, err := LoadEngine(bytes.NewReader(file))
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
		got, err := topK(e, target, len(targets))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("target %s: no results on the fresh engine", target.Name)
		}
		if rankingSignature(want, true) != rankingSignature(got, true) {
			t.Fatalf("target %s: the fixture answers differently:\nwant %s\ngot  %s",
				target.Name, rankingSignature(want, true), rankingSignature(got, true))
		}
	}
	if got, want := sigIDs(e), sigIDs(fresh); got != want {
		t.Fatalf("signature ids of the fixture load:\n%s\nof the fresh build:\n%s", got, want)
	}
	for _, e := range []*Engine{e, fresh} {
		var shared int32
		numeric := 0
		for i := range e.attrs {
			if a := &e.attrs[i]; a.is(attrNumeric) && a.t != 0 {
				numeric++
				if shared == 0 {
					shared = a.t
				}
				if tsig := e.sigs.sig(a.t); !tsig.Empty() || len(tsig) != e.opts.MinHashSize || a.t != shared {
					t.Fatalf("numeric attribute %q holds its own placeholder TSig", a.name)
				}
			}
		}
		if numeric < 2 {
			t.Fatalf("fixture lake has %d live numeric attributes, want two or more", numeric)
		}
	}

	resaved := snapshotBytes(t, e)
	if !bytes.Equal(resaved, file) {
		t.Fatal("the fixture re-snapshots to other bytes than the file")
	}
	if !bytes.Equal(snapshotBytes(t, fresh), file) {
		t.Fatal("a fresh build snapshots to other bytes than the fixture")
	}
	again, err := LoadEngine(bytes.NewReader(resaved))
	if err != nil {
		t.Fatal(err)
	}
	checkSameEngine(t, e, again, "the fixture load and its re-load")
}

// churnedEngine runs a seeded history of adds, updates and removes on a
// synthetic lake. It leaves the signature table's free list non-empty,
// so the engine's signature ids are not in the order the profiles first
// use them.
func churnedEngine(t testing.TB) *Engine {
	t.Helper()
	lake := syntheticLake(t, 23, 16)
	pool := slices.Clone(lake.Tables())
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for step := 0; step < 40; step++ {
		names := e.TableNames()
		name, src := names[rng.Intn(len(names))], pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			_, err = e.Add(mustTable(t, fmt.Sprintf("churn_%d", step), colNames(src), rowsOf(src)))
		case 1:
			rows := rowsOf(src)
			_, err = e.Update(mustTable(t, name, colNames(src), rows[:1+rng.Intn(len(rows))]))
		default:
			err = e.Remove(name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// firstUse lists the signature ids e's profiles hold in the order they
// first use them (by attribute id; Q, then T, then R), and counts those
// not at their first-use position.
func firstUse(e *Engine) (order []int32, moved int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	seen := map[int32]bool{}
	for i := range e.attrs {
		for _, id := range [3]int32{e.attrs[i].q, e.attrs[i].t, e.attrs[i].r} {
			if id != 0 && !seen[id] {
				seen[id] = true
				order = append(order, id)
				if int(id) != len(order) {
					moved++
				}
			}
		}
	}
	return order, moved
}

// TestSnapshotIsCanonical: after a write history whose freed signature
// ids leave the engine's ids out of first-use order, save → load → save
// gives the same bytes, the loaded engine holds its signatures under
// their first-use positions, and it answers like the saved one. The
// file carries first-use positions, never the ids.
func TestSnapshotIsCanonical(t *testing.T) {
	e := churnedEngine(t)
	order, moved := firstUse(e)
	if len(e.sigs.free) == 0 || moved == 0 {
		t.Fatalf("the history left %d free ids and %d signatures off their first-use position: it tests nothing", len(e.sigs.free), moved)
	}
	data := snapshotBytes(t, e)
	le, err := LoadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, snapshotBytes(t, le)) {
		t.Fatal("save → load → save changed the bytes")
	}
	if lorder, lmoved := firstUse(le); len(lorder) != len(order) || lmoved != 0 || len(le.sigs.sigs) != len(order)+1 {
		t.Fatalf("the loaded engine holds %d signatures under %d ids, %d off their first-use position; the saved one %d",
			len(lorder), len(le.sigs.sigs)-1, lmoved, len(order))
	}
	for _, name := range e.TableNames()[:8] {
		target := e.Lake().ByName(name)
		want, err := topK(e, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := topK(le, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		if rankingSignature(want, true) != rankingSignature(got, true) {
			t.Fatalf("target %s: the loaded engine answers differently", name)
		}
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

// replaceSection returns a copy of a snapshot with section id's payload
// replaced by edit's result, its length and the trailer rewritten.
func replaceSection(t testing.TB, data []byte, id uint32, edit func(payload []byte) []byte) []byte {
	t.Helper()
	const headerLen, sectionOverhead = 8 + 4, 4 + 8
	out := append([]byte(nil), data[:headerLen]...)
	found := false
	for off := headerLen; off < len(data)-4; {
		sid := binary.LittleEndian.Uint32(data[off:])
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		payload := data[off+sectionOverhead : off+sectionOverhead+n]
		if sid == id {
			payload, found = edit(append([]byte(nil), payload...)), true
		}
		out = binary.LittleEndian.AppendUint32(out, sid)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		off += sectionOverhead + n
	}
	if !found {
		t.Fatalf("no section %d", id)
	}
	return reseal(append(out, 0, 0, 0, 0))
}

// hostileSnapshot is a checksum-valid snapshot that breaks the signature
// table's contract, and the error a load must fail with.
type hostileSnapshot struct {
	what, why string // why: a phrase of the error the check under test returns
	data      []byte
}

// hostileSignatureTables edits the signature table of a snapshot of
// v1FixtureEngine four ways. The last three would break invariants
// sigTable.verify asserts (no unreferenced copy, no two equal copies) or
// allocate by a count the bytes cannot back.
func hostileSignatureTables(t testing.TB) []hostileSnapshot {
	data := snapshotBytes(t, v1FixtureEngine(t))
	var sigs []byte
	replaceSection(t, data, persist.SecSigs, func(p []byte) []byte { sigs = p; return p })
	count, at := binary.Uvarint(sigs)
	slots, n := binary.Uvarint(sigs[at:])
	first := sigs[at : at+n+4*int(slots)] // entry 1, counted
	withCount := func(p []byte, c uint64) []byte { return append(binary.AppendUvarint(nil, c), p[at:]...) }
	appendEntry := func(entry []byte) func([]byte) []byte {
		return func(p []byte) []byte { return append(withCount(p, count+1), entry...) }
	}
	unused := append([]byte(nil), first...)
	binary.LittleEndian.PutUint32(unused[n:], ^binary.LittleEndian.Uint32(unused[n:]))
	return []hostileSnapshot{
		{"a profile position past the table", "refers to signature", replaceSection(t, data, persist.SecAttrs, func(p []byte) []byte {
			// Profile 0's Q position follows the profile count, two ids,
			// the counted name and two bools.
			off := 0
			for range 3 {
				_, n := binary.Uvarint(p[off:])
				off += n
			}
			name, n := binary.Uvarint(p[off:])
			off += n + int(name) + 2
			_, n = binary.Uvarint(p[off:])
			return append(binary.AppendUvarint(slices.Clone(p[:off]), count+1), p[off+n:]...)
		})},
		{"a table entry no profile references", "held by no profile", replaceSection(t, data, persist.SecSigs, appendEntry(unused))},
		{"two equal table entries", "are equal", replaceSection(t, data, persist.SecSigs, appendEntry(first))},
		{"a table count larger than the section can hold", "signatures declared in", replaceSection(t, data, persist.SecSigs, func(p []byte) []byte {
			return withCount(p, 1<<30)
		})},
	}
}

// payloadOf is what b holds, without the trailer Sealed appends.
func payloadOf(b *persist.Buffer) []byte {
	sealed := b.Sealed()
	return sealed[:len(sealed)-4]
}

// withExtent is a snapshot of e whose profile i carries ext where its
// extent's bytes were.
func withExtent(t testing.TB, e *Engine, i int, ext []byte) []byte {
	t.Helper()
	pos, _ := e.sigPositions()
	marks := e.extentMarks()
	var head persist.Buffer
	head.Uvarint(uint64(len(e.attrs)))
	for j := 0; j < i; j++ {
		e.encodeProfile(&head, j, pos, marks[j])
	}
	// The profile's extent is the last thing it writes.
	var extent persist.Buffer
	appendExtent(&extent, e.attrs[i].extent, marks[i])
	e.encodeProfile(&head, i, pos, marks[i])
	end := len(payloadOf(&head))
	start := end - len(payloadOf(&extent))
	return replaceSection(t, snapshotBytes(t, e), persist.SecAttrs, func(p []byte) []byte {
		return append(append(slices.Clone(p[:start]), ext...), p[end:]...)
	})
}

// hostileFields edits the varints of a current-version snapshot of
// v1FixtureEngine: a profile count eleven bytes long and one past 64
// bits, and a scaled extent whose count runs past the section, whose
// scale is past 18, and whose second value steps k to 2^53.
func hostileFields(t testing.TB) []hostileSnapshot {
	e := v1FixtureEngine(t)
	data := snapshotBytes(t, e)
	numeric := -1
	for i := range e.attrs {
		if codeExtent(e.attrs[i].extent) != extentRaw && len(e.attrs[i].extent) > 1 {
			numeric = i
			break
		}
	}
	if numeric < 0 {
		t.Fatal("the fixture engine holds no scaled extent of two values or more")
	}
	profileCount := func(code []byte) []byte {
		return replaceSection(t, data, persist.SecAttrs, func(p []byte) []byte {
			_, n := binary.Uvarint(p)
			return append(code, p[n:]...)
		})
	}
	extent := func(n uint64, scale byte, ks ...uint64) []byte {
		b := append(binary.AppendUvarint(nil, n), scale)
		for _, k := range ks {
			b = binary.AppendUvarint(b, k)
		}
		return withExtent(t, e, numeric, b)
	}
	const k53 = 1<<53 - 1
	return []hostileSnapshot{
		{"an eleven-byte profile count", "more than 64 bits", profileCount([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})},
		{"a profile count past 64 bits", "more than 64 bits", profileCount([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})},
		{"an extent count beyond the section", "extent values declared", extent(1<<40, 0, 0)},
		{"an extent scale of 19", "extent scale 19", extent(2, maxExtentScale+1, 0, 1)},
		{"a step that takes k to 2^53", "past 2^53", extent(2, 0, 2*k53, 1)}, // 2·k53 is k53 zigzag-mapped
	}
}

// graphSection is a current-version graph section over numTables tables with
// one edge, between tables 0 and 1, whose first table declares first
// neighbours (1 for an honest section).
func graphSection(numTables int, first uint64) []byte {
	var g persist.Buffer
	g.Uvarint(uint64(numTables))
	g.Uvarint(first)
	g.Uvarint(1)
	for range numTables - 2 {
		g.Uvarint(0)
	}
	g.Uvarint(1)
	g.Uvarint(0)
	return payloadOf(&g)
}

// withGraphSection appends to a snapshot the graph section d3l.Save
// writes after the engine's own. LoadEngine passes over it.
func withGraphSection(data, graph []byte) []byte {
	body := slices.Clone(data[:len(data)-4])
	body = binary.LittleEndian.AppendUint32(body, persist.SecJoinGraph)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(graph)))
	return reseal(append(append(body, graph...), 0, 0, 0, 0))
}

// TestLoadRejectsHostileSignatureTables: each hostileSignatureTables input
// is refused as corrupt, by the check meant for it.
func TestLoadRejectsHostileSignatureTables(t *testing.T) {
	for _, h := range hostileSignatureTables(t) {
		_, err := LoadEngine(bytes.NewReader(h.data))
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), h.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt for %q", h.what, err, h.why)
		}
	}
}

// TestLoadRejectsHostileFields: each hostileFields input is refused as
// corrupt, by the check meant for it.
func TestLoadRejectsHostileFields(t *testing.T) {
	for _, h := range hostileFields(t) {
		_, err := LoadEngine(bytes.NewReader(h.data))
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), h.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt for %q", h.what, err, h.why)
		}
	}
}

// FuzzLoadEngine feeds LoadEngine hostile bytes, seeded with the
// refusals by version (the version 1, 2, 5 and 6 fixtures, the version
// 5 body under a version 3, a version 4 and the current header, and the
// version 7 fixture under a version 5 and a version 8 header), the
// version 7 fixture, a fresh snapshot with an SA-join graph section after the engine's
// (honest, and with a neighbour count beyond its ids), the hostile
// signature tables of hostileSignatureTables and the hostile varints
// and extents of hostileFields: the outcome is an error or an engine
// that answers a query, never a panic, and never allocations out of
// proportion to the input. The CRC trailer stops nearly every mutation
// at the door, so each input is also tried resealed, which puts the
// section decoders behind it in reach.
func FuzzLoadEngine(f *testing.F) {
	for _, fx := range []struct {
		path    string
		version uint32
	}{{v1FixturePath, 1}, {v2FixturePath, 2}, {v5FixturePath, 5}, {v6FixturePath, 6}} {
		f.Add(readFixture(f, fx.path, fx.version))
	}
	v5 := readFixture(f, v5FixturePath, 5)
	for _, v := range []uint32{3, 4, persist.Version} {
		f.Add(withVersion(v5, v))
	}
	v7 := readFixture(f, v7FixturePath, persist.Version)
	f.Add(withVersion(v7, 5))
	f.Add(withVersion(v7, persist.Version+1))
	f.Add(v7)
	e := v1FixtureEngine(f)
	data := snapshotBytes(f, e)
	f.Add(withGraphSection(data, graphSection(e.lake.Len(), 1)))
	f.Add(withGraphSection(data, graphSection(e.lake.Len(), 100)))
	for _, h := range append(hostileSignatureTables(f), hostileFields(f)...) {
		f.Add(h.data)
	}
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
