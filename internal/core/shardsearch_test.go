package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"d3l/internal/datagen"
	"d3l/internal/table"
)

// buildShards splits a lake across n engines in the shard-set id
// discipline: each table goes to its owner only, at the ids a
// coordinator hands out in lake order, and the owner fills the ids its
// peers hold with dead slots, so every table and attribute lives under
// the monolith's id. Ownership is round robin — exactness cannot depend
// on placement. It returns the engines and the set's next ids.
func buildShards(t testing.TB, lake *table.Lake, n int) ([]*Engine, WriteIDs) {
	t.Helper()
	shards := make([]*Engine, n)
	for s := range shards {
		e, err := BuildEngine(table.NewLake(), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		shards[s] = e
	}
	var next WriteIDs
	for i, tb := range lake.Tables() {
		owner := shards[i%n]
		if _, err := owner.AddProfiled(tb, mustPrepare(t, owner, tb), &next); err != nil {
			t.Fatal(err)
		}
		next = WriteIDs{Table: i + 1, Attr: next.Attr + len(tb.Columns)}
	}
	return shards, next
}

// shardSearch runs the full scatter-gather protocol over the shards the
// two ways the serving paths do: even shards profile the target
// themselves (a replica's handler on a memo miss), odd shards run on
// shard 0's profiles (shard.Set's prepare-once), and every partial
// crosses the binary wire before the merge (shard.Remote). The third
// result is what the merge pruned.
func shardSearch(t testing.TB, shards []*Engine, target *table.Table, spec QuerySpec) ([]TableResult, SearchStats, PlanStats) {
	t.Helper()
	ctx := context.Background()
	shared := mustPrepare(t, shards[0], target)
	probes := make([]*ShardProbe, len(shards))
	for i, e := range shards {
		var err error
		if i%2 == 0 {
			probes[i], err = e.ShardProbeSpec(ctx, target, spec)
		} else {
			probes[i], err = e.ShardProbe(ctx, shared, spec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	depths, err := MergeProbeDepths(probes)
	if err != nil {
		t.Fatal(err)
	}
	partials := make([]*ShardPartial, len(shards))
	for i, e := range shards {
		var p *ShardPartial
		if i%2 == 0 {
			p, err = e.ShardGatherSpec(ctx, target, spec, depths)
		} else {
			p, err = e.ShardGather(ctx, shared, spec, depths)
		}
		if err != nil {
			t.Fatal(err)
		}
		if partials[i], err = DecodeShardPartial(EncodeShardPartial(p)); err != nil {
			t.Fatalf("shard %d: partial does not survive the wire: %v", i, err)
		}
	}
	ranked, stats, plan, err := mergeShardPartials(depths, partials)
	if err != nil {
		t.Fatal(err)
	}
	return ranked, stats, plan
}

// assertShardEqualsMonolith compares the scatter-gather answer with the
// monolith's for a set of targets drawn from the lake itself.
func assertShardEqualsMonolith(t *testing.T, mono *Engine, shards []*Engine, lake *table.Lake, spec QuerySpec) {
	t.Helper()
	ctx := context.Background()
	for ti := 0; ti < lake.Len(); ti += 3 {
		target := lake.Table(ti)
		if len(target.Columns) == 0 {
			continue // removed stub
		}
		want, err := mono.SearchSpec(ctx, target, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, _ := shardSearch(t, shards, target, spec)
		if !reflect.DeepEqual(want.Ranked, got) {
			t.Fatalf("target %d, %d shards: ranking diverges\nmono: %s\nshard: %s",
				ti, len(shards), rankingSignature(want.Ranked, true), rankingSignature(got, true))
		}
		if want.Stats != gotStats {
			t.Fatalf("target %d, %d shards: stats diverge: mono %+v shard %+v", ti, len(shards), want.Stats, gotStats)
		}
	}
}

func TestShardSearchEqualsMonolith(t *testing.T) {
	lake := syntheticLake(t, 23, 34)
	mono, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := Weights{2.5, 0.6, 1.1, 0.3, 1.9}
	specs := []QuerySpec{{K: 8}, {K: 8, Uniform: true}, {K: 8, Weights: &w}}
	for _, n := range []int{1, 2, 3, 7} {
		shards, _ := buildShards(t, lake, n)
		for _, spec := range specs {
			assertShardEqualsMonolith(t, mono, shards, lake, spec)
		}
	}
}

// TestOneShardDepthsAreTheMonolithProbe pins "the monolith is the
// one-shard case" at the one step where the two paths differ: for a
// single shard holding the whole lake, the depth MergeProbeDepths
// imposes on every (column, forest) is the stop depth the monolith's
// self-tuning probe picks for the same target, and 0 exactly where the
// probe table skips the forest.
func TestOneShardDepthsAreTheMonolithProbe(t *testing.T) {
	lake := syntheticLake(t, 23, 34)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := []QuerySpec{
		{K: 8},
		{K: 3, CandidateBudget: 5},
		{K: 8, CandidateBudget: 10000},
		{K: 8, Disabled: &[NumEvidence]bool{EvidenceValue: true, EvidenceEmbedding: true}},
	}
	ws := e.getWorkerScratch()
	defer e.putWorkerScratch(ws)
	for _, spec := range specs {
		view, err := spec.resolve()
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < lake.Len(); ti += 3 {
			target := mustPrepare(t, e, lake.Table(ti))
			tprofiles := target.profiles
			probe, err := e.ShardProbe(ctx, target, spec)
			if err != nil {
				t.Fatal(err)
			}
			depths, err := MergeProbeDepths([]*ShardProbe{probe})
			if err != nil {
				t.Fatal(err)
			}
			for col := range tprofiles {
				for slot, p := range e.probeTable(&tprofiles[col], &view.disabled, ws) {
					want := 0
					if p.forest != nil {
						if _, want, err = p.forest.Probe(p.sig, view.budget, nil, &ws.depths); err != nil {
							t.Fatal(err)
						}
					}
					if got := int(depths.Depths[col][slot]); got != want {
						t.Fatalf("spec %+v target %d col %d slot %d: imposed depth %d, the monolith's probe stops at %d",
							spec, ti, col, slot, got, want)
					}
				}
			}
		}
	}
}

// TestShardSearchPrunesAndStaysExact is the sharded twin of
// TestPlannerPrunesAndStaysExact on BenchmarkPlannerPrunedSkewed's lake:
// near-duplicate tables, targets from the lake, k = 1, so the heap's
// threshold drops to almost zero at once. The coordinator's merge must
// prune (it runs the monolith's loop, not a prune-free copy of it) and
// still deep-equal both the monolith and the naive reference.
func TestShardSearchPrunesAndStaysExact(t *testing.T) {
	lake, _, err := datagen.Synthetic(datagen.SyntheticConfig{
		Seed:          7,
		BaseTables:    4,
		DerivedTables: 160,
		MinRows:       30,
		MaxRows:       60,
		RenameProb:    0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{K: 1, CandidateBudget: 96}
	for _, n := range []int{1, 3} {
		shards, _ := buildShards(t, lake, n)
		for i := 0; i < 4; i++ {
			target := lake.Table((i * 9) % lake.Len())
			want, err := mono.SearchSpec(context.Background(), target, spec)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := naiveSearchSpec(mono, target, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, plan := shardSearch(t, shards, target, spec)
			if plan.TablesPruned == 0 || plan.EvidenceEvalsElided == 0 {
				t.Fatalf("target %d, %d shards: the merge pruned nothing: %+v", i, n, plan)
			}
			if n == 1 && (plan.TablesPruned != want.Plan.TablesPruned || plan.EvidenceEvalsElided != want.Plan.EvidenceEvalsElided) {
				// One shard ships its tables in the monolith's order, so
				// the same loop must prune the very same tables.
				t.Fatalf("target %d: one-shard merge pruned %+v, monolith %+v", i, plan, want.Plan)
			}
			if !reflect.DeepEqual(want.Ranked, got) || !reflect.DeepEqual(naive.Ranked, got) {
				t.Fatalf("target %d, %d shards: ranking diverges\nmono:  %s\nnaive: %s\nshard: %s", i, n,
					rankingSignature(want.Ranked, true), rankingSignature(naive.Ranked, true), rankingSignature(got, true))
			}
			if want.Stats != gotStats || naive.Stats != gotStats {
				t.Fatalf("target %d, %d shards: stats diverge: mono %+v naive %+v shard %+v", i, n, want.Stats, naive.Stats, gotStats)
			}
		}
	}
}

// TestShardGatherRejectsForeignProfiles: profiles prepared by an engine
// with narrower signatures than this shard's forests index (a replica
// whose options drifted, a memo that outlived a swap) must fail the
// gather with the forest's error — never come back as an empty partial,
// which the merge would take for "this shard has no candidates".
func TestShardGatherRejectsForeignProfiles(t *testing.T) {
	lake := syntheticLake(t, 23, 12)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	narrowOpts := testOptions()
	narrowOpts.MinHashSize, narrowOpts.ForestTrees, narrowOpts.ForestHashes = 64, 4, 16
	narrow, err := BuildEngine(table.NewLake(), narrowOpts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	target := lake.Table(0)
	spec := QuerySpec{K: 3}
	probe, err := e.ShardProbeSpec(ctx, target, spec)
	if err != nil {
		t.Fatal(err)
	}
	depths, err := MergeProbeDepths([]*ShardProbe{probe})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e.ShardGather(ctx, mustPrepare(t, narrow, target), spec, depths)
	if err == nil || !strings.Contains(err.Error(), "forest needs") {
		t.Fatalf("foreign-width profiles: err = %v, want the forest's signature-length error", err)
	}
	if partial != nil {
		t.Fatalf("foreign-width profiles answered a partial with %d tables", len(partial.Tables))
	}
}

// TestShardSearchEqualsMonolithAfterMutations drives both sides through
// the same Add/Update/Remove sequence and re-checks equality: writes at
// the set's assigned ids keep every shard's ids the monolith's.
func TestShardSearchEqualsMonolithAfterMutations(t *testing.T) {
	full := syntheticLake(t, 31, 30)
	tables := full.Tables()
	n := len(tables)
	const late = 3
	lake := table.NewLake()
	for i := 0; i < n-late; i++ {
		if _, err := lake.Add(tables[i]); err != nil {
			t.Fatal(err)
		}
	}
	mono, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	shards, next := buildShards(t, lake, 3)

	// Late adds: each to its owner only, at the set's next ids, and the
	// same add on the monolith.
	for i := n - late; i < n; i++ {
		tb := tables[i]
		want, err := mono.Add(tb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shards[i%len(shards)].AddProfiled(tb, mustPrepare(t, mono, tb), &next)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("late add %q: shard id %d, monolith id %d", tb.Name, got, want)
		}
		next = WriteIDs{Table: got + 1, Attr: next.Attr + len(tb.Columns)}
	}

	// In-place update of an owned table: shrink it to its first rows so
	// the extents (and so the profiles) genuinely change.
	victim := tables[1]
	shrunk := mustSubTable(t, victim, 5)
	monoStats, err := mono.Update(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	shardStats, err := shards[1%len(shards)].UpdateAt(shrunk, next.Attr)
	if err != nil {
		t.Fatal(err)
	}
	if monoStats != shardStats {
		t.Fatalf("update stats diverge: mono %+v shard %+v", monoStats, shardStats)
	}
	next.Attr += shardStats.Reprofiled

	// Remove an owned table: the owner tombstones, peers do nothing.
	gone := tables[2]
	if err := mono.Remove(gone.Name); err != nil {
		t.Fatal(err)
	}
	if err := shards[2%len(shards)].Remove(gone.Name); err != nil {
		t.Fatal(err)
	}

	assertShardEqualsMonolith(t, mono, shards, full, QuerySpec{K: 8})
	tablesMax, attrsMax := 0, 0
	for _, e := range shards {
		tablesMax, attrsMax = max(tablesMax, e.LakeLen()), max(attrsMax, e.NumAttributes())
	}
	if tablesMax != mono.LakeLen() || attrsMax != mono.NumAttributes() {
		t.Fatalf("largest shard slot counts %d, %d; monolith %d, %d", tablesMax, attrsMax, mono.LakeLen(), mono.NumAttributes())
	}
}

// mustSubTable rebuilds a table from its first maxRows rows.
func mustSubTable(t testing.TB, tb *table.Table, maxRows int) *table.Table {
	t.Helper()
	cols := make([]string, len(tb.Columns))
	for i, c := range tb.Columns {
		cols[i] = c.Name
	}
	rows := 0
	for _, c := range tb.Columns {
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	if rows > maxRows {
		rows = maxRows
	}
	data := make([][]string, rows)
	for r := range data {
		data[r] = make([]string, len(tb.Columns))
		for ci, c := range tb.Columns {
			if r < len(c.Values) {
				data[r][ci] = c.Values[r]
			}
		}
	}
	out, err := table.New(tb.Name+"__sub", cols, data)
	if err != nil {
		t.Fatal(err)
	}
	out.Name = tb.Name
	return out
}

// TestMergeSortedRunsEqualsSort holds the D run merge to what it
// replaced: on 1–4 shards' cells — empty ones, duplicates within and
// across them, NaNs — each shipped as runs of equal values, the merged
// runs expand to exactly the slice that concatenating and sorting the
// shards' samples gives, bit for bit (slices.Sort puts NaNs first; so
// does the merge), after whatever dst already held, one run per value.
func TestMergeSortedRunsEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	values := []float64{0, 0.125, 0.25, 0.25, 0.5, 1, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 2000; trial++ {
		runs := make([][]DomainRun, 1+rng.Intn(4))
		var want []float64
		for i := range runs {
			var cell []float64
			if rng.Intn(4) > 0 { // one cell in four stays empty
				for n := rng.Intn(12); n > 0; n-- {
					v := values[rng.Intn(len(values))]
					if rng.Intn(3) == 0 {
						v = rng.Float64()
					}
					cell = append(cell, v)
				}
			}
			slices.Sort(cell)
			want = append(want, cell...)
			for j := 0; j < len(cell); {
				k := j + 1
				for k < len(cell) && cmp.Compare(cell[k], cell[j]) == 0 {
					k++
				}
				runs[i] = append(runs[i], DomainRun{Value: cell[j], Count: int32(k - j)})
				j = k
			}
		}
		slices.Sort(want)
		prefix := domainRun{value: -1}
		got := mergeSortedRuns([]domainRun{prefix}, runs)
		if got[0] != prefix {
			t.Fatalf("trial %d: the prefix changed to %v", trial, got[0])
		}
		var expanded []float64
		for j, r := range got[1:] {
			if int(r.before) != len(expanded) {
				t.Fatalf("trial %d: run %d counts %d samples before it, want %d", trial, j, r.before, len(expanded))
			}
			if j > 0 && !cmp.Less(got[j].value, r.value) {
				t.Fatalf("trial %d: runs %d and %d are not strictly ascending: %v, %v", trial, j-1, j, got[j].value, r.value)
			}
			for _, v := range want[len(expanded):] {
				if cmp.Compare(v, r.value) != 0 {
					break
				}
				expanded = append(expanded, v)
			}
		}
		if len(expanded) != len(want) {
			t.Fatalf("trial %d: merged runs cover %d samples, want %d\n got  %v\n want %v", trial, len(expanded), len(want), got[1:], want)
		}
		for i, w := range want {
			if math.Float64bits(expanded[i]) != math.Float64bits(w) {
				t.Fatalf("trial %d: merge differs from sort at %d\n got  %v\n want %v", trial, i, expanded, want)
			}
		}
		for i, run := range runs {
			if len(run) != 0 {
				t.Fatalf("trial %d: run %d not consumed", trial, i)
			}
		}
	}
}

// TestMergedAnswerDoesNotPinPartials: the merge copies the winners'
// rows out and its pooled scratch lets go of what it merged, so once the
// caller drops the partials nothing of them outlives the query — not in
// an answer a result cache may hold for hours, not in the pool.
func TestMergedAnswerDoesNotPinPartials(t *testing.T) {
	_, depths, partial := gatherFixture(t, QuerySpec{K: 8})
	// Every pair is one sample in each cell, so the first column with
	// pairs starts both distribution slabs.
	col := slices.IndexFunc(partial.Dists, func(cd ColumnDists) bool { return len(cd.Domain) > 0 })
	if col < 0 {
		t.Fatal("fixture: no distributions")
	}
	const slabs = 3
	freed := make(chan string, slabs)
	runtime.SetFinalizer(&partial.Tables[0].Rows[0], func(*ShardRow) { freed <- "row slab" })
	runtime.SetFinalizer(&partial.Dists[col].Coded[0][0], func(*CodeCount) { freed <- "code slab" })
	runtime.SetFinalizer(&partial.Dists[col].Domain[0], func(*DomainRun) { freed <- "D run slab" })
	ranked, _, err := MergeShardPartials(depths, []*ShardPartial{partial})
	if err != nil || len(ranked) == 0 {
		t.Fatalf("merge: %d results, err %v", len(ranked), err)
	}
	partial = nil
	for got := 0; got < slabs; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("a slab of the merged partial is still reachable with only the answer alive (%d of %d freed)", got, slabs)
		}
	}
	runtime.KeepAlive(ranked)
}
