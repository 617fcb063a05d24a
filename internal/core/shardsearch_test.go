package core

import (
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

// buildMirrorShards splits a lake across n engines in the shard-set id
// discipline: tables enter every engine in lake order, the owner with a
// real Add and the peers with a MirrorAdd, so table and attribute ids
// are identical on every shard and to the monolith. Ownership is round
// robin — exactness cannot depend on placement.
func buildMirrorShards(t testing.TB, lake *table.Lake, n int) []*Engine {
	t.Helper()
	shards := make([]*Engine, n)
	for s := range shards {
		e, err := BuildEngine(table.NewLake(), testOptions())
		if err != nil {
			t.Fatal(err)
		}
		shards[s] = e
	}
	for i, tb := range lake.Tables() {
		for s, e := range shards {
			if s == i%n {
				if _, err := e.Add(tb); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := e.MirrorAdd(tb.Name, len(tb.Columns)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return shards
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
	shared := shards[0].ProfileTarget(target)
	probes := make([]*ShardProbe, len(shards))
	for i, e := range shards {
		var err error
		if i%2 == 0 {
			probes[i], err = e.ShardProbeSpec(ctx, target, spec)
		} else {
			probes[i], err = e.ShardProbeProfiled(ctx, shared, spec)
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
			p, err = e.ShardGatherProfiled(ctx, shared, spec, depths)
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
	for _, n := range []int{1, 2, 3, 7} {
		shards := buildMirrorShards(t, lake, n)
		assertShardEqualsMonolith(t, mono, shards, lake, QuerySpec{K: 8})
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
		view, err := e.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < lake.Len(); ti += 3 {
			tprofiles := e.ProfileTarget(lake.Table(ti))
			probe, err := e.ShardProbeProfiled(ctx, tprofiles, spec)
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
		shards := buildMirrorShards(t, lake, n)
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
	partial, err := e.ShardGatherProfiled(ctx, narrow.ProfileTarget(target), spec, depths)
	if err == nil || !strings.Contains(err.Error(), "forest needs") {
		t.Fatalf("foreign-width profiles: err = %v, want the forest's signature-length error", err)
	}
	if partial != nil {
		t.Fatalf("foreign-width profiles answered a partial with %d tables", len(partial.Tables))
	}
}

// TestShardSearchEqualsMonolithAfterMutations drives both sides through
// the same Add/Update/Remove sequence and re-checks equality: mutations
// must keep the shard set's id space in lockstep with the monolith.
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
	shards := buildMirrorShards(t, lake, 3)

	// Late adds: owner Add + peer MirrorAdd, mirroring on the monolith.
	for i := n - late; i < n; i++ {
		tb := tables[i]
		if _, err := mono.Add(tb); err != nil {
			t.Fatal(err)
		}
		owner := i % len(shards)
		for s, e := range shards {
			if s == owner {
				if _, err := e.Add(tb); err != nil {
					t.Fatal(err)
				}
			} else if _, err := e.MirrorAdd(tb.Name, len(tb.Columns)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// In-place update of an owned table: shrink it to its first rows so
	// the extents (and so the profiles) genuinely change.
	victim := tables[1]
	shrunk := mustSubTable(t, victim, 5)
	monoStats, err := mono.Update(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	ownerIdx := 1 % len(shards)
	shardStats, err := shards[ownerIdx].Update(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if monoStats != shardStats {
		t.Fatalf("update stats diverge: mono %+v shard %+v", monoStats, shardStats)
	}
	for s, e := range shards {
		if s == ownerIdx {
			continue
		}
		if err := e.MirrorUpdate(shardStats.TableID, shardStats.Reprofiled); err != nil {
			t.Fatal(err)
		}
	}

	// Remove an owned table: the owner tombstones, peers do nothing.
	gone := tables[2]
	if err := mono.Remove(gone.Name); err != nil {
		t.Fatal(err)
	}
	if err := shards[2%len(shards)].Remove(gone.Name); err != nil {
		t.Fatal(err)
	}

	assertShardEqualsMonolith(t, mono, shards, full, QuerySpec{K: 8})
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

// TestMergeSortedRunsEqualsSort holds the run merge to what it
// replaced: on 1–4 sorted runs — empty ones, duplicates within and
// across runs, NaNs — it appends exactly the slice that concatenating
// and sorting gives, bit for bit (slices.Sort puts NaNs first; so does
// the merge), after whatever dst already held.
func TestMergeSortedRunsEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	values := []float64{0, 0.125, 0.25, 0.25, 0.5, 1, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 2000; trial++ {
		runs := make([][]float64, 1+rng.Intn(4))
		var want []float64
		for i := range runs {
			if rng.Intn(4) > 0 { // one run in four stays empty
				for n := rng.Intn(12); n > 0; n-- {
					v := values[rng.Intn(len(values))]
					if rng.Intn(3) == 0 {
						v = rng.Float64()
					}
					runs[i] = append(runs[i], v)
				}
			}
			slices.Sort(runs[i])
			want = append(want, runs[i]...)
		}
		slices.Sort(want)
		got := mergeSortedRuns([]float64{-1}, runs)
		if got[0] != -1 || len(got) != 1+len(want) {
			t.Fatalf("trial %d: merged %d values after the prefix, want %d", trial, len(got)-1, len(want))
		}
		for i, w := range want {
			if math.Float64bits(got[1+i]) != math.Float64bits(w) {
				t.Fatalf("trial %d: merge differs from sort at %d\n got  %v\n want %v", trial, i, got[1:], want)
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
	_, depths, partial := gatherFixture(t, QuerySpec{K: 8}, testOptions())
	freed := make(chan string, 2)
	runtime.SetFinalizer(&partial.Tables[0].Rows[0], func(*Alignment) { freed <- "row slab" })
	for i := range partial.Samples {
		if len(partial.Samples[i]) > 0 { // the first non-empty cell starts the slab
			runtime.SetFinalizer(&partial.Samples[i][0], func(*float64) { freed <- "sample slab" })
			break
		}
	}
	ranked, _, err := MergeShardPartials(depths, []*ShardPartial{partial})
	if err != nil || len(ranked) == 0 {
		t.Fatalf("merge: %d results, err %v", len(ranked), err)
	}
	partial = nil
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("a slab of the merged partial is still reachable with only the answer alive (%d of 2 freed)", got)
		}
	}
	runtime.KeepAlive(ranked)
}
