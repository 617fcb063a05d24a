// Tests for the build-once/serve-many flow: d3l.Save / d3l.Load must
// produce a serving replica that answers every public query —
// including join-augmented queries off the persisted SA-join graph —
// identically to the engine the snapshot was taken from.
package d3l_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"d3l"
	"d3l/internal/datagen"
	"d3l/internal/persist"
)

func savedBytes(t testing.TB, e *d3l.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d3l.Save(e, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func resultSignature(results []d3l.Result) string {
	var out string
	for _, r := range results {
		out += fmt.Sprintf("%d|%s|%b|", r.TableID, r.Name, r.Distance)
		for _, v := range r.Vector {
			out += fmt.Sprintf("%b,", v)
		}
		for _, a := range r.Alignments {
			out += fmt.Sprintf("|%d:%d:%d", a.TargetColumn, a.AttrID, a.CandColumn)
		}
		out += "\n"
	}
	return out
}

func augmentedSignature(augs []d3l.Augmented) string {
	var out string
	for _, a := range augs {
		out += fmt.Sprintf("%s|%b|%b|%b", a.Result.Name, a.Result.Distance, a.BaseCoverage, a.JoinCoverage)
		for _, p := range a.Paths {
			out += fmt.Sprintf("|%v", p)
		}
		out += "\n"
	}
	return out
}

// TestSaveFileReplacesWhole: SaveFile lays Save's bytes down under the
// path through a temporary file it leaves nowhere — not after a
// successful write, and not when the final rename fails, in which case
// what stands at the path is untouched.
func TestSaveFileReplacesWhole(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	noTemps := func() {
		t.Helper()
		if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(temps) > 0 {
			t.Fatalf("temporary files left behind: %v", temps)
		}
	}
	path := filepath.Join(dir, "lake.d3l")
	if err := os.WriteFile(path, []byte("the previous snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d3l.SaveFile(engine, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, savedBytes(t, engine)) {
		t.Fatal("SaveFile wrote other bytes than Save")
	}
	noTemps()

	// A non-empty directory at the path: the rename cannot land.
	blocked := filepath.Join(dir, "blocked.d3l")
	if err := os.MkdirAll(filepath.Join(blocked, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d3l.SaveFile(engine, blocked); err == nil {
		t.Fatal("SaveFile over a directory succeeded")
	}
	noTemps()
	if _, err := os.Stat(filepath.Join(blocked, "keep")); err != nil {
		t.Fatalf("a failed SaveFile disturbed the path: %v", err)
	}
}

// servedSignature runs every query shape — ranking, D3L+J, batch and
// explanation — against e and renders the answers for comparison.
func servedSignature(t testing.TB, e *d3l.Engine) string {
	t.Helper()
	ctx := context.Background()
	target := figure1Target(t)
	ranked, err := e.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked.Results) == 0 {
		t.Fatal("no results")
	}
	joined, err := e.Query(ctx, target, d3l.WithK(5), d3l.WithJoins())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.QueryBatch(ctx, []*d3l.Table{target, figure1Target(t)}, d3l.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	explained, err := e.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor("S2"))
	if err != nil {
		t.Fatal(err)
	}
	sig := resultSignature(ranked.Results) + augmentedSignature(joined.Joins)
	for _, a := range batch {
		sig += resultSignature(a.Results)
	}
	return sig + d3l.FormatExplanation(explained.Explanation) + fmt.Sprintf("edges %d\n", e.JoinGraphEdges())
}

// hasGraphSection reports whether a snapshot carries the SA-join graph.
func hasGraphSection(t testing.TB, data []byte) bool {
	t.Helper()
	dec, err := persist.NewDecoder(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	_, ok := dec.SectionSizes()[persist.SecJoinGraph]
	return ok
}

// TestSaveLoadServesIdentically is the public-API round trip: every
// query shape must be indistinguishable between the original engine and
// a replica loaded from its snapshot — one saved before any join query,
// which carries no graph and builds it on first use, and one saved after
// the graph was built, which serves joins off the persisted graph. Save
// itself never builds a graph.
func TestSaveLoadServesIdentically(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bare := savedBytes(t, engine)
	if hasGraphSection(t, bare) {
		t.Fatal("Save built and wrote a join graph no query had built")
	}
	want := servedSignature(t, engine) // builds the graph
	withGraph := savedBytes(t, engine)
	if !hasGraphSection(t, withGraph) {
		t.Fatal("Save dropped the join graph the engine holds")
	}
	for name, data := range map[string][]byte{"without graph": bare, "with graph": withGraph} {
		loaded, err := d3l.Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := servedSignature(t, loaded); got != want {
			t.Fatalf("replica loaded %s diverged:\nwant %s\ngot  %s", name, want, got)
		}
	}
}

// TestSaveIgnoresParallelism: a snapshot is a function of the lake and
// the build options alone. Engines built at Parallelism 1 and 3 save to
// the same bytes, and so does a replica loaded from them after
// SetParallelism(2): parallelism belongs to the host, not the file.
func TestSaveIgnoresParallelism(t *testing.T) {
	var want []byte
	for _, par := range []int{1, 3} {
		opts := d3l.DefaultOptions()
		opts.Parallelism = par
		engine, err := d3l.New(figure1Lake(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		got := savedBytes(t, engine)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("Parallelism %d saves other bytes than Parallelism 1", par)
		}
	}
	loaded, err := d3l.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, loaded), want) {
		t.Fatal("SetParallelism(2) on a loaded engine changed its snapshot")
	}
}

// TestLoadedEngineMutatesAndResnapshots: a replica accepts Add/Remove
// and Compact after load, stays query-identical to the original under
// the same mutations, and can be snapshotted again.
func TestLoadedEngineMutatesAndResnapshots(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := d3l.Load(bytes.NewReader(savedBytes(t, engine)))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *d3l.Table {
		return mustTable(t, "S4",
			[]string{"Practice", "City", "Postcode"},
			[][]string{
				{"Blackfriars", "Salford", "M3 6AF"},
				{"The London Clinic", "London", "W1G 6BW"},
			})
	}
	if _, err := engine.Add(mk()); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Add(mk()); err != nil {
		t.Fatal(err)
	}
	if err := engine.Remove("S3"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Remove("S3"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	target := figure1Target(t)
	ctx := context.Background()
	want, err := engine.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(want.Results) != resultSignature(got.Results) {
		t.Fatal("mutated replica diverged from mutated original")
	}
	// Second-generation snapshot: save the mutated replica, load it,
	// and check it still serves.
	second, err := d3l.Load(bytes.NewReader(savedBytes(t, loaded)))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := second.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(want.Results) != resultSignature(got2.Results) {
		t.Fatal("second-generation snapshot diverged")
	}
}

// TestLoadRejectsGarbage exercises the public error path: truncations,
// bit flips, and non-snapshot input must error, never panic, with the
// same error class through Load and through LoadFile of the same bytes.
func TestLoadRejectsGarbage(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, engine)
	path := filepath.Join(t.TempDir(), "garbage.d3l")
	refuse := func(what string, in []byte, want error) {
		t.Helper()
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errLoad := d3l.Load(bytes.NewReader(in))
		_, errFile := d3l.LoadFile(path)
		if !errors.Is(errLoad, want) || !errors.Is(errFile, want) {
			t.Fatalf("%s: Load err = %v, LoadFile err = %v; want %v", what, errLoad, errFile, want)
		}
	}
	refuse("empty input", nil, persist.ErrTruncated)
	refuse("CSV text", []byte("practice,city\na,b\n"), persist.ErrMagic)
	for _, n := range []int{1, 11, 40, len(data) / 2, len(data) - 1} {
		want := persist.ErrChecksum
		if n < 16 { // shorter than the header and the trailer
			want = persist.ErrTruncated
		}
		refuse(fmt.Sprintf("truncation to %d bytes", n), data[:n], want)
	}
	for i := 0; i < len(data); i += 509 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		want := persist.ErrChecksum
		if i < len(persist.Magic) {
			want = persist.ErrMagic
		}
		refuse(fmt.Sprintf("bit flip at %d", i), mut, want)
	}
	// Resealed, so the checksum passes: a first section claiming more
	// bytes than precede the trailer, and a version this build does not
	// read.
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(mut[12+4:], uint64(len(data)))
	refuse("section length past the trailer", reseal(mut), persist.ErrCorrupt)
	mut = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[8:], persist.Version+1)
	refuse("unknown version", reseal(mut), persist.ErrVersion)
}

// reseal rewrites, in place, a snapshot's last four bytes to the CRC32-C
// of what precedes them.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return data
}

// TestLoadFileDoesNotHoldTheFile: LoadFile decodes straight from the
// file through a fixed window, so what it allocates is what the loaded
// engine keeps, plus that window and a little slack — not a copy of the
// file beside the engine.
func TestLoadFileDoesNotHoldTheFile(t *testing.T) {
	lake, _, err := datagen.Synthetic(datagen.SyntheticConfig{
		Seed: 31, BaseTables: 10, DerivedTables: 290, MinRows: 20, MaxRows: 40, RenameProb: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lake.d3l")
	if err := d3l.SaveFile(engine, path); err != nil {
		t.Fatal(err)
	}
	const window = 64 << 10 // the persist package's read window

	var before, loaded, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	replica, err := d3l.LoadFile(path)
	runtime.ReadMemStats(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(replica)
	alloc := loaded.TotalAlloc - before.TotalAlloc
	live := after.HeapAlloc - before.HeapAlloc
	if limit := live + window + live/20; alloc > limit {
		t.Fatalf("LoadFile allocated %d bytes for an engine of %d live bytes (%.2f×), limit %d",
			alloc, live, float64(alloc)/float64(live), limit)
	}
}

// TestSaveUnderConcurrentTraffic saves snapshots while mutations and
// join queries are in flight; every snapshot must load into a working
// replica (run under -race in CI).
func TestSaveUnderConcurrentTraffic(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := figure1Target(t)
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
			tb, err := d3l.NewTable(name,
				[]string{"Practice", "City"},
				[][]string{{"Blackfriars", "Salford"}})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := engine.Add(tb); err != nil {
				t.Error(err)
				return
			}
			if err := engine.Remove(name); err != nil {
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
			if _, err := engine.Query(context.Background(), target, d3l.WithK(3), d3l.WithJoins()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		var buf bytes.Buffer
		if err := d3l.Save(engine, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := d3l.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("snapshot %d unloadable: %v", i, err)
		}
		if _, err := loaded.Query(context.Background(), target, d3l.WithK(3), d3l.WithJoins()); err != nil {
			t.Fatalf("snapshot %d: replica join query failed: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// saveLoopEnv names the snapshot path a re-executed test binary saves
// over, in a loop, for TestSaveFileSurvivesKill.
const saveLoopEnv = "D3L_TEST_SAVE_LOOP"

// killEngines are the two engines TestSaveFileSurvivesKill saves over
// one path: a lake of a few windows' snapshot, and the same lake less
// one table. Parent and child build them alike.
func killEngines(t testing.TB) (old, new *d3l.Engine) {
	t.Helper()
	lake, _, err := datagen.Synthetic(datagen.SyntheticConfig{
		Seed: 17, BaseTables: 4, DerivedTables: 60, MinRows: 20, MaxRows: 40, RenameProb: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if old, err = d3l.New(lake, d3l.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if new, err = d3l.New(lake, d3l.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := new.Remove(lake.Table(0).Name); err != nil {
		t.Fatal(err)
	}
	return old, new
}

// TestSaveFileSurvivesKill: a process killed at any moment while it
// saves over a snapshot leaves a snapshot at the path that loads, and
// it is the old one or the new one, whole. The test binary re-executes
// itself as a child that saves the two engines over one path in turn
// until it is killed (SIGKILL, at seeded random delays). A kill tests
// atomicity only; whether the rename survives a power loss is not
// something a test process can observe. A killed save may leave its
// temporary file, and the next save removes it: after the killed rounds
// and one clean save, none is left.
func TestSaveFileSurvivesKill(t *testing.T) {
	if path := os.Getenv(saveLoopEnv); path != "" {
		old, new := killEngines(t)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			for _, e := range []*d3l.Engine{new, old} {
				if err := d3l.SaveFile(e, path); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	old, new := killEngines(t)
	want := map[string]string{string(savedBytes(t, old)): "old", string(savedBytes(t, new)): "new"}
	path := filepath.Join(t.TempDir(), "lake.d3l")
	rng := rand.New(rand.NewSource(55))
	seen := map[string]int{}
	left := 0 // temporary files the killed saves left
	for round := 0; round < 8; round++ {
		temps, _ := filepath.Glob(path + ".*.tmp")
		left += len(temps)
		if err := d3l.SaveFile(old, path); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		child := exec.Command(os.Args[0], "-test.run=^TestSaveFileSurvivesKill$")
		child.Env = append(os.Environ(), saveLoopEnv+"="+path)
		child.Stdout, child.Stderr = &out, &out
		if err := child.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(50+rng.Intn(150)) * time.Millisecond)
		if err := child.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		// A kill is the only way the child ends without an exit code.
		if err := child.Wait(); child.ProcessState.ExitCode() != -1 {
			t.Fatalf("round %d: the saving child ended before it was killed (%v):\n%s", round, err, out.Bytes())
		}
		loaded, err := d3l.LoadFile(path)
		if err != nil {
			t.Fatalf("round %d: the snapshot a killed save left does not load: %v", round, err)
		}
		which, ok := want[string(savedBytes(t, loaded))]
		if !ok {
			t.Fatalf("round %d: the snapshot a killed save left is neither the old engine nor the new one", round)
		}
		seen[which]++
	}
	temps, _ := filepath.Glob(path + ".*.tmp")
	left += len(temps)
	if err := d3l.SaveFile(old, path); err != nil {
		t.Fatal(err)
	}
	if temps, _ = filepath.Glob(path + ".*.tmp"); len(temps) > 0 {
		t.Fatalf("a clean save after the killed ones left temporary files %v", temps)
	}
	t.Logf("killed saves left %v, and %d temporary files, all removed by the saves after them", seen, left)
}
