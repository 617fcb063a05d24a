// Tests for the build-once/serve-many flow: d3l.Save / d3l.Load must
// produce a serving replica that answers every public query —
// including join-augmented queries off the persisted SA-join graph —
// identically to the engine the snapshot was taken from.
package d3l_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"d3l"
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

// TestSaveLoadServesIdentically is the public-API round trip: TopK,
// BatchTopK, Explain and TopKWithJoins must be indistinguishable
// between the original engine and a replica loaded from its snapshot.
func TestSaveLoadServesIdentically(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := d3l.Load(bytes.NewReader(savedBytes(t, engine)))
	if err != nil {
		t.Fatal(err)
	}
	target := figure1Target(t)

	want, err := engine.TopK(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.TopK(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no results from the original engine")
	}
	if resultSignature(want) != resultSignature(got) {
		t.Fatalf("TopK diverged:\nwant %s\ngot  %s", resultSignature(want), resultSignature(got))
	}

	wantJ, err := engine.TopKWithJoins(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotJ, err := loaded.TopKWithJoins(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if augmentedSignature(wantJ) != augmentedSignature(gotJ) {
		t.Fatalf("TopKWithJoins diverged:\nwant %s\ngot  %s", augmentedSignature(wantJ), augmentedSignature(gotJ))
	}
	if engine.JoinGraphEdges() != loaded.JoinGraphEdges() {
		t.Fatalf("join graph edges %d != %d", loaded.JoinGraphEdges(), engine.JoinGraphEdges())
	}

	batch, err := loaded.BatchTopK([]*d3l.Table{target, figure1Target(t)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := engine.BatchTopK([]*d3l.Table{target, figure1Target(t)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if resultSignature(wantBatch[i]) != resultSignature(batch[i]) {
			t.Fatalf("BatchTopK answer %d diverged", i)
		}
	}

	wantRows, err := engine.Explain(target, "S2")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := loaded.Explain(target, "S2")
	if err != nil {
		t.Fatal(err)
	}
	if d3l.FormatExplanation(wantRows) != d3l.FormatExplanation(gotRows) {
		t.Fatal("Explain diverged after round trip")
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
	want, err := engine.TopK(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.TopK(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(want) != resultSignature(got) {
		t.Fatal("mutated replica diverged from mutated original")
	}
	// Second-generation snapshot: save the mutated replica, load it,
	// and check it still serves.
	second, err := d3l.Load(bytes.NewReader(savedBytes(t, loaded)))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := second.TopK(target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(want) != resultSignature(got2) {
		t.Fatal("second-generation snapshot diverged")
	}
}

// TestLoadRejectsGarbage exercises the public error path: truncations,
// bit flips, and non-snapshot input must error, never panic.
func TestLoadRejectsGarbage(t *testing.T) {
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := savedBytes(t, engine)
	if _, err := d3l.Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input loaded")
	}
	if _, err := d3l.Load(bytes.NewReader([]byte("practice,city\na,b\n"))); err == nil {
		t.Fatal("CSV text loaded as a snapshot")
	}
	for _, n := range []int{1, 11, 40, len(data) / 2, len(data) - 1} {
		if _, err := d3l.Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded", n)
		}
	}
	for i := 0; i < len(data); i += 509 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		if _, err := d3l.Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d loaded", i)
		}
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
			if _, err := engine.TopKWithJoins(target, 3); err != nil {
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
		if _, err := loaded.TopKWithJoins(target, 3); err != nil {
			t.Fatalf("snapshot %d: replica join query failed: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
