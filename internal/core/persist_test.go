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
	enc := persist.NewEncoder()
	if err := e.AppendSnapshot(enc, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := enc.WriteTo(&buf); err != nil {
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
	lo := le.opts
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
	if got := le.opts.Parallelism; got != 1 {
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
	if got := le.opts.Parallelism; got != 4 {
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
// last commit whose signatures were []uint64 (a7c1cef), and the
// version 2 fixture, testdata/snapshot_v2.d3l, by the last commit that
// stored a copy of every signature per profile (26a1714), each with this
// test dropped into that commit's internal/core and run once:
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
// Neither can be regenerated from this tree (which writes version 4),
// and neither must be: they stand for every snapshot already on disk.
const (
	v1FixturePath = "testdata/snapshot_v1.d3l"
	v2FixturePath = "testdata/snapshot_v2.d3l"
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

// checkOldSnapshot is the compatibility contract of a format bump, for
// the fixture at path, a snapshot of v1FixtureEngine written by format
// version: it loads; answers every table of its lake, and an outside
// target, bit for bit like an engine built from scratch by this tree;
// holds each signature under the id that engine, and a load of its
// current snapshot, give it; re-snapshots as the current version to the
// very bytes the fresh engine snapshots to; and those bytes round-trip
// unchanged. It returns the fixture, the engine loaded from it and its
// re-snapshot.
func checkOldSnapshot(t *testing.T, path string, version uint32) (old []byte, e *Engine, cur []byte) {
	t.Helper()
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := persist.NewDecoder(bytes.NewReader(old), int64(len(old))); err != nil {
		t.Fatal(err)
	} else if dec.Version() != version {
		t.Fatalf("fixture is a version %d snapshot, want %d", dec.Version(), version)
	}
	e, err = LoadEngine(bytes.NewReader(old))
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
			t.Fatalf("target %s: the version %d snapshot answers differently:\nwant %s\ngot  %s",
				target.Name, version, rankingSignature(want, true), rankingSignature(got, true))
		}
	}

	cur = snapshotBytes(t, e)
	if dec, err := persist.NewDecoder(bytes.NewReader(cur), int64(len(cur))); err != nil {
		t.Fatal(err)
	} else if dec.Version() != persist.Version {
		t.Fatalf("re-snapshot is a version %d snapshot, want %d", dec.Version(), persist.Version)
	}
	if len(cur) >= len(old) {
		t.Fatalf("version %d snapshot is %d bytes, version %d was %d", persist.Version, len(cur), version, len(old))
	}
	if !bytes.Equal(cur, snapshotBytes(t, fresh)) {
		t.Fatalf("the loaded version %d engine and a fresh build snapshot to different bytes", version)
	}
	again, err := LoadEngine(bytes.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, snapshotBytes(t, again)) {
		t.Fatalf("version %d snapshot does not round-trip to the same bytes", persist.Version)
	}
	for _, other := range []struct {
		what string
		e    *Engine
	}{{"the fresh build", fresh}, {fmt.Sprintf("the version %d load", persist.Version), again}} {
		if got, want := sigIDs(e), sigIDs(other.e); got != want {
			t.Fatalf("signature ids of the version %d load:\n%s\nof %s:\n%s", version, got, other.what, want)
		}
	}
	if len(e.sigs.sigs) != len(again.sigs.sigs) || len(e.sigs.free)+len(again.sigs.free) != 0 {
		t.Fatalf("signature tables of %d and %d ids, %d and %d free, for one snapshot",
			len(e.sigs.sigs), len(again.sigs.sigs), len(e.sigs.free), len(again.sigs.free))
	}
	return old, e, cur
}

// sigIDs renders the signature ids every profile holds, for comparing
// two engines' id assignments.
func sigIDs(e *Engine) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var b strings.Builder
	for i := range e.profiles {
		p := &e.profiles[i]
		fmt.Fprintf(&b, "%d:%d/%d/%d ", i, p.qID, p.tID, p.rID)
	}
	return b.String()
}

// TestSnapshotV1IsRefused: a version 1 snapshot (64-bit MinHash slots)
// is older than persist.MinVersion, so it is refused as ErrVersion
// naming version 1, and its body under a version 2 header does not read
// either.
func TestSnapshotV1IsRefused(t *testing.T) {
	v1, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadEngine(bytes.NewReader(v1))
	if !errors.Is(err, persist.ErrVersion) || !strings.Contains(err.Error(), "version: 1 (") {
		t.Fatalf("version 1 snapshot: err = %v, want ErrVersion naming version 1", err)
	}
	if _, err := LoadEngine(bytes.NewReader(withVersion(v1, 2))); err == nil {
		t.Fatal("version 1 body read as version 2")
	}
}

// TestSnapshotV2StillLoads: a version 2 snapshot (a copy of every
// signature per profile) keeps checkOldSnapshot's contract; its forests
// are rebuilt with the entries its SecForests holds; numeric
// attributes share one empty TSig, loaded or built; a version this build
// does not know is ErrVersion; and version 2 and 3 bodies do not read
// under each other's headers.
func TestSnapshotV2StillLoads(t *testing.T) {
	v2, old, cur := checkOldSnapshot(t, v2FixturePath, 2)
	fresh := v1FixtureEngine(t)

	// The fixture's SecForests is not read, but it holds what the build
	// that wrote it indexed: the forests the load rebuilt hold exactly
	// its entries, as every probe sees them.
	var forests []byte
	replaceSection(t, v2, persist.SecForests, func(p []byte) []byte { forests = p; return p })
	checkForestsMatchOneArrays(t, old, decodeOneArrays(t, forests), "the version 2 fixture")

	// Numeric attributes share one empty TSig, loaded or built: the
	// signature table's copy.
	for _, e := range []*Engine{old, fresh} {
		var shared *uint32
		numeric := 0
		for i := range e.profiles {
			if p := &e.profiles[i]; p.Numeric && len(p.TSig) > 0 {
				numeric++
				if shared == nil {
					shared = &p.TSig[0]
				}
				if !p.TSig.Empty() || &p.TSig[0] != shared {
					t.Fatalf("numeric attribute %q holds its own placeholder TSig", p.Name)
				}
			}
		}
		if numeric < 2 {
			t.Fatalf("fixture lake has %d live numeric attributes, want two or more", numeric)
		}
	}

	if _, err := LoadEngine(bytes.NewReader(withVersion(cur, persist.Version+1))); !errors.Is(err, persist.ErrVersion) {
		t.Fatalf("version %d: err = %v, want ErrVersion", persist.Version+1, err)
	}
	if _, err := LoadEngine(bytes.NewReader(withVersion(v2, 3))); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("version 2 body read as version 3: err = %v, want ErrCorrupt (no signature table)", err)
	}
	if _, err := LoadEngine(bytes.NewReader(withVersion(cur, 2))); err == nil {
		t.Fatal("version 3 body read as version 2")
	}
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
	for i := range e.profiles {
		for _, f := range e.profiles[i].sigRefs() {
			if f.id != 0 && !seen[f.id] {
				seen[f.id] = true
				order = append(order, f.id)
				if int(f.id) != len(order) {
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

// TestSnapshotSizeBound: AppendSnapshot's one reservation holds the
// whole snapshot, and exceeds it by no more than snapshotSizeBound's
// comment states: SecOptions' slack (a weight per evidence type not
// disabled) plus, per tombstoned table, the column count its lake entry
// no longer carries.
func TestSnapshotSizeBound(t *testing.T) {
	for _, c := range []struct {
		name string
		e    *Engine
	}{{"figure 1", buildFigure1Engine(t)}, {"churned", churnedEngine(t)}} {
		e := c.e
		e.mu.RLock()
		_, order := e.sigPositions()
		bound := e.snapshotSizeBound(order)
		dead := 0
		for _, alive := range e.alive {
			if !alive {
				dead++
			}
		}
		e.mu.RUnlock()
		const headerAndTrailer = 8 + 4 + 4
		written := len(snapshotBytes(t, e)) - headerAndTrailer
		if slack, limit := bound-written, 8*int(NumEvidence)+4*dead; slack < 0 || slack > limit {
			t.Fatalf("%s: bound %d for %d written bytes: slack %d, want 0…%d (%d tombstoned tables)",
				c.name, bound, written, slack, limit, dead)
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
	count := binary.LittleEndian.Uint32(sigs)
	first := sigs[4 : 4+4+4*int(binary.LittleEndian.Uint32(sigs[4:]))] // entry 1, counted
	appendEntry := func(entry []byte) func([]byte) []byte {
		return func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p, count+1)
			return append(p, entry...)
		}
	}
	unused := append([]byte(nil), first...)
	binary.LittleEndian.PutUint32(unused[4:], ^binary.LittleEndian.Uint32(unused[4:]))
	return []hostileSnapshot{
		{"a profile position past the table", "refers to signature", replaceSection(t, data, persist.SecAttrs, func(p []byte) []byte {
			// Profile 0's Q position follows the profile count, two I64s,
			// the counted name and two bools.
			off := 4 + 16 + 4 + int(binary.LittleEndian.Uint32(p[4+16:])) + 2
			binary.LittleEndian.PutUint32(p[off:], count+1)
			return p
		})},
		{"a table entry no profile references", "held by no profile", replaceSection(t, data, persist.SecSigs, appendEntry(unused))},
		{"two equal table entries", "are equal", replaceSection(t, data, persist.SecSigs, appendEntry(first))},
		{"a table count larger than the section can hold", "signatures declared in", replaceSection(t, data, persist.SecSigs, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p, 1<<30)
			return p
		})},
	}
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

// FuzzLoadEngine feeds LoadEngine hostile bytes, seeded with one
// snapshot of each version (version 1's exercises the refusal by
// version), the hostile signature tables of hostileSignatureTables and
// the version 3 files of forgedForests, whose SecForests a load must not
// read: the outcome is an error or an engine that answers a query, never
// a panic, and never allocations out of proportion to the input. The CRC trailer
// stops nearly every mutation at the door, so each input is also tried
// resealed, which puts the section decoders behind it in reach.
func FuzzLoadEngine(f *testing.F) {
	for _, path := range []string{v1FixturePath, v2FixturePath} {
		old, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	e := v1FixtureEngine(f)
	data := snapshotBytes(f, e)
	f.Add(data)
	for _, h := range hostileSignatureTables(f) {
		f.Add(h.data)
	}
	for _, c := range forgedForests(f, e) {
		f.Add(asVersion3(f, data, c.forests))
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
