package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"d3l/internal/datagen"
	"d3l/internal/table"
)

// syntheticLake generates a small seeded synthetic lake (the same
// generator the experiments use), big enough that queries exercise all
// four indexes but small enough for -race runs.
func syntheticLake(t testing.TB, seed uint64, derived int) *table.Lake {
	t.Helper()
	cfg := datagen.SyntheticConfig{
		Seed:          seed,
		BaseTables:    6,
		DerivedTables: derived,
		MinRows:       20,
		MaxRows:       40,
		RenameProb:    0.25,
	}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lake
}

// rankingSignature renders a ranked answer as comparable text: one line
// per result with name, distance bits, vector bits, and alignments.
func rankingSignature(results []TableResult, withAttrIDs bool) string {
	var out string
	for _, r := range results {
		out += fmt.Sprintf("%s|%b|", r.Name, r.Distance)
		for _, v := range r.Vector {
			out += fmt.Sprintf("%b,", v)
		}
		for _, a := range r.Alignments {
			if withAttrIDs {
				out += fmt.Sprintf("|%d:%d:%d", a.TargetColumn, a.AttrID, a.CandColumn)
			} else {
				out += fmt.Sprintf("|%d:%d", a.TargetColumn, a.CandColumn)
			}
		}
		out += "\n"
	}
	return out
}

// TestParallelSearchDeterministic asserts that the parallel Search path
// returns byte-identical rankings to the sequential path on a seeded
// synthetic lake, for several targets and parallelism levels.
func TestParallelSearchDeterministic(t *testing.T) {
	lake := syntheticLake(t, 11, 40)
	opts := testOptions()
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 6; ti++ {
		target := lake.Table(ti * 5)
		seq, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 10, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			got, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 10, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			want := rankingSignature(seq.Ranked, true)
			have := rankingSignature(got.Ranked, true)
			if want != have {
				t.Fatalf("target %d: parallelism %d diverges from sequential:\nseq:\n%s\npar:\n%s", ti, par, want, have)
			}
			if !reflect.DeepEqual(seq.Ranked, got.Ranked) {
				t.Fatalf("target %d: parallelism %d: DeepEqual mismatch", ti, par)
			}
		}
	}
}

// TestIncrementalAddEqualsRebuild asserts the property-style incremental
// correctness claim: BuildEngine(lake) followed by Add(T1..Tm) answers
// top-k queries identically to BuildEngine(lake+T1..Tm).
func TestIncrementalAddEqualsRebuild(t *testing.T) {
	full := syntheticLake(t, 7, 36)
	tables := full.Tables()
	n := len(tables)
	const late = 4 // tables arriving after the build

	base := table.NewLake()
	for i := 0; i < n-late; i++ {
		if _, err := base.Add(tables[i]); err != nil {
			t.Fatal(err)
		}
	}
	opts := testOptions()
	rebuilt, err := BuildEngine(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := BuildEngine(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := n - late; i < n; i++ {
		tid, err := incr.Add(tables[i])
		if err != nil {
			t.Fatal(err)
		}
		if tid != i {
			t.Fatalf("Add assigned id %d, want %d", tid, i)
		}
	}
	if rebuilt.NumAttributes() != incr.NumAttributes() {
		t.Fatalf("attribute counts differ: %d vs %d", rebuilt.NumAttributes(), incr.NumAttributes())
	}
	for ti := 0; ti < n; ti += 3 {
		target := tables[ti]
		a, err := topK(rebuilt, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := topK(incr, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Table ids and attribute ids coincide (the late tables were
		// appended in the same order), so the comparison is exact.
		if sa, sb := rankingSignature(a, true), rankingSignature(b, true); sa != sb {
			t.Fatalf("target %d: incremental engine diverges from rebuild:\nrebuild:\n%s\nincremental:\n%s", ti, sa, sb)
		}
	}
}

// TestRemoveEqualsRebuildWithout asserts that Remove makes a table
// unreachable and leaves every other ranking exactly as if the table
// had never been indexed.
func TestRemoveEqualsRebuildWithout(t *testing.T) {
	full := syntheticLake(t, 13, 30)
	tables := full.Tables()
	n := len(tables)
	victim := tables[n-1]

	without := table.NewLake()
	for i := 0; i < n-1; i++ {
		if _, err := without.Add(tables[i]); err != nil {
			t.Fatal(err)
		}
	}
	opts := testOptions()
	mutated, err := BuildEngine(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mutated.Remove(victim.Name); err != nil {
		t.Fatal(err)
	}
	clean, err := BuildEngine(without, opts)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < n-1; ti += 3 {
		target := tables[ti]
		a, err := topK(clean, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := topK(mutated, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b {
			if r.Name == victim.Name {
				t.Fatalf("target %d: removed table still ranked", ti)
			}
		}
		if sa, sb := rankingSignature(a, true), rankingSignature(b, true); sa != sb {
			t.Fatalf("target %d: post-Remove engine diverges from rebuild-without:\nclean:\n%s\nmutated:\n%s", ti, sa, sb)
		}
	}
	// Querying the removed table itself must not surface it either.
	res, err := topK(mutated, victim, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Name == victim.Name {
			t.Fatal("removed table reachable from its own extent")
		}
	}
	if mutated.AliveTable(n - 1) {
		t.Fatal("AliveTable true after Remove")
	}
	// The name is gone, so a second Remove errors...
	if err := mutated.Remove(victim.Name); err == nil {
		t.Fatal("expected error on double Remove")
	}
	// ...and the name is free for a fresh Add, which must restore full
	// reachability under a new table id.
	tid, err := mutated.Add(victim)
	if err != nil {
		t.Fatal(err)
	}
	if tid != n {
		t.Fatalf("re-Add assigned id %d, want %d", tid, n)
	}
	res, err = topK(mutated, victim, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Name == victim.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("re-added table not reachable")
	}
}

// TestRemoveMiddleTableKeepsOthersRanked removes a table from the
// middle of the id space and checks that surviving rankings match a
// rebuild without it (names and distances; attribute ids necessarily
// differ because the rebuild compacts them).
func TestRemoveMiddleTableKeepsOthersRanked(t *testing.T) {
	full := syntheticLake(t, 29, 24)
	tables := full.Tables()
	n := len(tables)
	victimID := n / 2
	victim := tables[victimID]

	without := table.NewLake()
	for i := 0; i < n; i++ {
		if i == victimID {
			continue
		}
		if _, err := without.Add(tables[i]); err != nil {
			t.Fatal(err)
		}
	}
	opts := testOptions()
	mutated, err := BuildEngine(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mutated.Remove(victim.Name); err != nil {
		t.Fatal(err)
	}
	clean, err := BuildEngine(without, opts)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < n; ti += 3 {
		if ti == victimID {
			continue
		}
		target := tables[ti]
		a, err := topK(clean, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := topK(mutated, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := rankingSignature(a, false), rankingSignature(b, false); sa != sb {
			t.Fatalf("target %d rankings perturbed by unrelated Remove:\nclean:\n%s\nmutated:\n%s", ti, sa, sb)
		}
	}
}

// TestConcurrentEngineStress hammers one shared engine with concurrent
// Search, BatchTopK, Add, Remove and metadata reads. Run under
// `go test -race`; the assertions are liveness and reachability, the
// race detector provides the memory-safety verdict.
func TestConcurrentEngineStress(t *testing.T) {
	lake := syntheticLake(t, 3, 24)
	opts := testOptions()
	opts.Parallelism = 4
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	stable := make([]*table.Table, 6)
	for i := range stable {
		stable[i] = lake.Table(i)
	}
	// Churn tables cycle through Add/Remove while queries run.
	churn := make([]*table.Table, 4)
	for i := range churn {
		churn[i] = mustTable(t, fmt.Sprintf("churn_%d", i),
			[]string{"City", "Postcode", "Payment"},
			[][]string{
				{"Salford", "M3 6AF", "15530"},
				{"Manchester", "M26 2SP", "20081"},
				{"Bolton", "BL3 6PY", "17264"},
			})
	}

	// Captured before any goroutine starts: direct Lake reads concurrent
	// with Engine.Add are outside the engine's locking contract.
	initialLen := lake.Len()

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	// Searchers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := e.SearchSpec(context.Background(), stable[(w+i)%len(stable)], QuerySpec{K: 5}); err != nil {
					fail <- fmt.Errorf("search: %w", err)
					return
				}
			}
		}(w)
	}
	// Batcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := e.BatchSearchSpec(context.Background(), stable, QuerySpec{K: 5}); err != nil {
				fail <- fmt.Errorf("batch: %w", err)
				return
			}
		}
	}()
	// Mutator: add and remove churn tables in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			for _, c := range churn {
				if _, err := e.Add(c); err != nil {
					fail <- fmt.Errorf("add: %w", err)
					return
				}
			}
			for _, c := range churn {
				if err := e.Remove(c.Name); err != nil {
					fail <- fmt.Errorf("remove: %w", err)
					return
				}
			}
		}
	}()
	// Metadata readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_ = e.NumAttributes()
			_ = e.IndexSpaceBytes()
			_ = e.AliveTable(i % (initialLen + 1))
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	// After the churn settles, no churn table is reachable.
	res, err := e.SearchSpec(context.Background(), churn[0], QuerySpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranked {
		for _, c := range churn {
			if r.Name == c.Name {
				t.Fatalf("churn table %s reachable after final Remove", c.Name)
			}
		}
	}
}

// TestBatchTopKMatchesSingleQueries asserts BatchTopK is exactly a
// concurrent fan-out of TopK: same answers, indexed like the targets.
func TestBatchTopKMatchesSingleQueries(t *testing.T) {
	lake := syntheticLake(t, 19, 24)
	opts := testOptions()
	e, err := BuildEngine(lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*table.Table, 8)
	for i := range targets {
		targets[i] = lake.Table(i * 2)
	}
	batch, err := e.BatchSearchSpec(context.Background(), targets, QuerySpec{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(targets) {
		t.Fatalf("batch returned %d answers for %d targets", len(batch), len(targets))
	}
	for i, target := range targets {
		single, err := topK(e, target, 7)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := rankingSignature(single, true), rankingSignature(batch[i].Ranked, true); sa != sb {
			t.Fatalf("target %d: batch answer differs from single query:\nsingle:\n%s\nbatch:\n%s", i, sa, sb)
		}
	}
	if _, err := e.BatchSearchSpec(context.Background(), targets, QuerySpec{K: 0}); err == nil {
		t.Fatal("expected error for k = 0")
	}
	if out, err := e.BatchSearchSpec(context.Background(), nil, QuerySpec{K: 5}); err != nil || len(out) != 0 {
		t.Fatal("empty batch should succeed with no answers")
	}
}

// TestRemoveReleasesPayloads asserts that Remove frees the heavy state
// of the removed table — signature/extent payloads of its profiles and
// the lake slot's column data — so Add/Remove churn cannot accumulate
// memory (ids and names stay resolvable).
func TestRemoveReleasesPayloads(t *testing.T) {
	e := buildFigure1Engine(t)
	tid, ok := e.Lake().IDByName("S1")
	if !ok {
		t.Fatal("S1 missing")
	}
	attrs := append([]int(nil), e.TableAttrs(tid)...)
	if err := e.Remove("S1"); err != nil {
		t.Fatal(err)
	}
	for _, attrID := range attrs {
		p := e.Profile(attrID)
		if len(p.QSig) != 0 || len(p.TSig) != 0 || len(p.RSig) != 0 || len(p.ESig) != 0 || p.NumExtent != nil {
			t.Fatalf("attr %d retains payload after Remove", attrID)
		}
		if p.Name == "" || p.Ref.TableID != tid {
			t.Fatalf("attr %d lost its metadata on Remove", attrID)
		}
	}
	stub := e.Lake().Table(tid)
	if stub.Name != "S1" {
		t.Fatal("lake slot lost its name")
	}
	if stub.Arity() != 0 {
		t.Fatalf("lake slot retains %d columns after Remove", stub.Arity())
	}
}

// TestAddValidation covers the error paths of the mutation API.
func TestAddValidation(t *testing.T) {
	e := buildFigure1Engine(t)
	if _, err := e.Add(nil); err == nil {
		t.Fatal("expected error for nil table")
	}
	dup := mustTable(t, "S1", []string{"A"}, [][]string{{"x"}})
	if _, err := e.Add(dup); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if err := e.Remove("no_such_table"); err == nil {
		t.Fatal("expected error removing unknown table")
	}
}
