// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment at a reduced
// scale per iteration (the -bench harness needs iterations to be
// seconds, not minutes); `go run ./cmd/d3l exp -id all -scale paper`
// runs the full-size sweep. Environment generation and index builds
// are hoisted out of the timed loop where the experiment itself only
// measures query-side work.
package d3l_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"d3l"
	"d3l/internal/datagen"
	"d3l/internal/experiments"
	"d3l/internal/server"
	"d3l/internal/shard"
)

// benchScale is the per-iteration experiment size.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Label:           "bench",
		SyntheticBases:  8,
		SyntheticTables: 80,
		RealInstances:   3,
		RealTablesPer:   12,
		RealMinEntities: 40,
		RealMaxEntities: 90,
		Targets:         8,
		Ks:              []int{5, 10, 20},
		JoinKs:          []int{5, 10},
		LargerSteps:     []int{40, 80},
		SearchKs:        []int{5, 20},
		Seed:            42,
		CandidateBudget: 64,
	}
}

func benchSynthEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewSyntheticEnv(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := env.D3L(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.TUS(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.Aurum(); err != nil {
		b.Fatal(err)
	}
	return env
}

func benchRealEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewRealEnv(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := env.D3L(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.TUS(); err != nil {
		b.Fatal(err)
	}
	if _, err := env.Aurum(); err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFig2RepoStats regenerates Figure 2 (repository statistics).
func BenchmarkFig2RepoStats(b *testing.B) {
	synth := benchSynthEnv(b)
	real := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(synth, real); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIExample regenerates Table I (example pair distances on
// the Figure 1 fixture), including the fixture index build.
func BenchmarkTableIExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp1IndividualEvidence regenerates Figure 3 (per-evidence
// precision/recall on SmallerReal). Builds one engine per evidence
// type per iteration, as the experiment requires.
func BenchmarkExp1IndividualEvidence(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp1(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp2SyntheticPR regenerates Figure 4 (comparative P/R on
// Synthetic).
func BenchmarkExp2SyntheticPR(b *testing.B) {
	env := benchSynthEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp2(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp3SmallerRealPR regenerates Figure 5 (comparative P/R on
// SmallerReal).
func BenchmarkExp3SmallerRealPR(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp3(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp4IndexingTime regenerates Figure 6a (indexing time vs
// lake size); index building is the measured work, so it stays inside
// the loop.
func BenchmarkExp4IndexingTime(b *testing.B) {
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp4(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp5SearchTimeSynthetic regenerates Figure 6b (search time
// vs answer size on Synthetic).
func BenchmarkExp5SearchTimeSynthetic(b *testing.B) {
	env := benchSynthEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp5(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp6SearchTimeSmallerReal regenerates Figure 6c (search time
// vs answer size on SmallerReal).
func BenchmarkExp6SearchTimeSmallerReal(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp6(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp7SpaceOverhead regenerates Table II (index space
// overhead); builds all three systems on three repositories per
// iteration.
func BenchmarkExp7SpaceOverhead(b *testing.B) {
	synth := benchSynthEnv(b)
	real := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp7(synth, real); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp8CoverageSynthetic regenerates Figure 7a (target coverage
// on Synthetic, with and without join paths).
func BenchmarkExp8CoverageSynthetic(b *testing.B) {
	env := benchSynthEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp8(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp9AttrPrecisionSynthetic regenerates Figure 7b (attribute
// precision on Synthetic, with and without join paths).
func BenchmarkExp9AttrPrecisionSynthetic(b *testing.B) {
	env := benchSynthEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp9(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp10CoverageSmallerReal regenerates Figure 8a (target
// coverage on SmallerReal, with and without join paths).
func BenchmarkExp10CoverageSmallerReal(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp10(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp11AttrPrecisionSmallerReal regenerates Figure 8b
// (attribute precision on SmallerReal, with and without join paths).
func BenchmarkExp11AttrPrecisionSmallerReal(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExp11(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightTraining regenerates the Eq. 3 weight fit (Section
// III-D: logistic regression by coordinate descent over labelled
// pairs).
func BenchmarkWeightTraining(b *testing.B) {
	env := benchSynthEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TrainedWeightsReport(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeighting measures the CCDF-vs-uniform weighting
// ablation (DESIGN.md design choice: the Eq. 2 weighting scheme).
func BenchmarkAblationWeighting(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationWeighting(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSampling measures the extent-sampling ablation
// (DESIGN.md design choice: bounded profiling cost).
func BenchmarkAblationSampling(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationSampling(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLeaveOneOut measures the leave-one-evidence-out
// ablation (DESIGN.md design choice: five evidence types).
func BenchmarkAblationLeaveOneOut(b *testing.B) {
	env := benchRealEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationEvidencePairs(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent serving benchmarks ---
//
// BenchmarkSequentialTopKLoop and BenchmarkBatchTopK answer the same
// query set over the same lake; the first is the pre-concurrency
// serving shape (one query at a time, sequential pipeline), the second
// the BatchTopK worker pool at Parallelism = NumCPU. On a multi-core
// box the batch path's queries/s metric scales with the core count
// (both pin the same per-query work, so the ratio is the fan-out win).

// benchServingSetup indexes a synthetic lake once and selects the
// query workload.
func benchServingSetup(b *testing.B, parallelism int) (*d3l.Engine, []*d3l.Table) {
	b.Helper()
	cfg := datagen.SyntheticConfig{
		Seed:          42,
		BaseTables:    8,
		DerivedTables: 120,
		MinRows:       30,
		MaxRows:       60,
		RenameProb:    0.25,
	}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := d3l.DefaultOptions()
	opts.Parallelism = parallelism
	opts.CandidateBudget = 64
	engine, err := d3l.New(lake, opts)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]*d3l.Table, 32)
	for i := range targets {
		targets[i] = lake.Table((i * 3) % lake.Len())
	}
	return engine, targets
}

// BenchmarkSequentialTopKLoop is the baseline: every query of the
// workload answered one at a time through the sequential pipeline.
func BenchmarkSequentialTopKLoop(b *testing.B) {
	engine, targets := benchServingSetup(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, target := range targets {
			if _, err := engine.TopK(target, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(targets)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkBatchTopK is the serving primitive: the same workload
// answered by the concurrent worker pool at Parallelism = NumCPU.
func BenchmarkBatchTopK(b *testing.B) {
	engine, targets := benchServingSetup(b, runtime.NumCPU())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.BatchTopK(targets, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(targets)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkQueryVsTopK is the API-redesign overhead guard: the same
// workload through the legacy TopK wrapper and through the unified
// context-first Query call. The two sub-benchmarks must track each
// other — the functional-option plumbing, per-query spec resolution
// and the cooperative cancellation checkpoints are nanoseconds next to
// the millisecond-scale ranking, and CI's benchstat gate flags any
// drift. (TopK itself routes through Query, so this also measures
// that the wrapper adds nothing on top.)
func BenchmarkQueryVsTopK(b *testing.B) {
	engine, targets := benchServingSetup(b, 1)
	ctx := context.Background()
	b.Run("TopK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.TopK(targets[i%len(targets)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Query(ctx, targets[i%len(targets)], d3l.WithK(10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QueryWithOptions", func(b *testing.B) {
		w := d3l.DefaultWeights()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Query(ctx, targets[i%len(targets)],
				d3l.WithK(10), d3l.WithWeights(w), d3l.WithCandidateBudget(64)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchAllocs is the allocation-accounting view of the
// query hot path: the same steady-state workload as the TopK
// benchmarks with -benchmem semantics always on, so the B/op and
// allocs/op columns land in every bench run and CI's benchstat gate
// catches allocation regressions, not just time ones. The remaining
// per-query allocations are dominated by target profiling; the
// candidate-generation-through-ranking pipeline itself runs on pooled
// arenas and is pinned near zero by core's TestQueryAllocationBudget.
func BenchmarkSearchAllocs(b *testing.B) {
	engine, targets := benchServingSetup(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TopK(targets[i%len(targets)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSearch measures one query with its internal
// column/table fan-out at Parallelism = NumCPU (the latency, rather
// than throughput, side of the concurrency work).
func BenchmarkParallelSearch(b *testing.B) {
	engine, targets := benchServingSetup(b, runtime.NumCPU())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TopK(targets[i%len(targets)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Query planner benchmarks ---
//
// The planner benchmarks measure the three regimes of the prepared-
// plan execution path: preparing a plan from nothing on every query
// (cold), reusing a cached plan (warm — the serving steady state), and
// the pruning payoff on a skewed lake where most candidate tables are
// provably outside the top-k. The warm/cold pair bounds the prepare
// phase's cost.

// BenchmarkPlannerColdPlan forces a plan-cache miss on every query:
// the prepare phase (target fingerprinting, cascade construction, LRU
// insert) is paid each time. The gap to BenchmarkPlannerWarmPlan is
// the total prepare overhead — nanoseconds against a millisecond-scale
// ranking, which is what makes planning every query tenable.
func BenchmarkPlannerColdPlan(b *testing.B) {
	engine, targets := benchServingSetup(b, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ResetPlanCache()
		if _, err := engine.Query(ctx, targets[i%len(targets)], d3l.WithK(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerWarmPlan is the serving steady state: every target's
// plan is already cached, so each query runs fingerprint + LRU hit. A
// plan holds only the evidence cascade, so warm and cold differ by that
// look-up against building a five-entry cascade, nothing else.
func BenchmarkPlannerWarmPlan(b *testing.B) {
	engine, targets := benchServingSetup(b, 1)
	ctx := context.Background()
	for _, target := range targets {
		if _, err := engine.Query(ctx, target, d3l.WithK(10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Query(ctx, targets[i%len(targets)], d3l.WithK(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerPrunedSkewed is the pruning-payoff case: a lake of
// near-duplicate derived tables, targets drawn from the lake, k = 1 —
// the heap threshold drops to a near-zero distance immediately, so the
// cascade can elide most tables after their cheapest evidence
// component. The sub-run reports pruned-pairs/op, which should stay
// above zero.
func BenchmarkPlannerPrunedSkewed(b *testing.B) {
	cfg := datagen.SyntheticConfig{
		Seed:          7,
		BaseTables:    4,
		DerivedTables: 160,
		MinRows:       30,
		MaxRows:       60,
		RenameProb:    0.1,
	}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := d3l.DefaultOptions()
	opts.Parallelism = 1
	opts.CandidateBudget = 96
	engine, err := d3l.New(lake, opts)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]*d3l.Table, 16)
	for i := range targets {
		targets[i] = lake.Table((i * 9) % lake.Len())
	}
	ctx := context.Background()
	b.Run("PlannerOn", func(b *testing.B) {
		before := engine.PlannerTotals()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Query(ctx, targets[i%len(targets)], d3l.WithK(1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := engine.PlannerTotals()
		b.ReportMetric(float64(after.PairsPruned-before.PairsPruned)/float64(b.N), "pruned-pairs/op")
	})
}

// --- Snapshot cold-start benchmarks ---
//
// BenchmarkColdStartRebuild and BenchmarkLoadSnapshot are the two ways
// a serving replica can come up on the same synthetic lake: re-profile
// and re-index every CSV, or deserialise a prebuilt snapshot.
// Profiling dominates indexing cost (the paper's Experiment 4
// observation), so the snapshot path is expected to be well over an
// order of magnitude faster — the build-once/serve-many property the
// `d3l index build` / `d3l query -index` flow relies on.

// benchSnapshotLake is the lake both cold-start benchmarks come up on.
func benchSnapshotLake(b *testing.B) *d3l.Lake {
	b.Helper()
	cfg := datagen.SyntheticConfig{
		Seed:          42,
		BaseTables:    8,
		DerivedTables: 120,
		MinRows:       30,
		MaxRows:       60,
		RenameProb:    0.25,
	}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return lake
}

// BenchmarkColdStartRebuild is the baseline: build the engine from the
// raw lake on every start.
func BenchmarkColdStartRebuild(b *testing.B) {
	lake := benchSnapshotLake(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d3l.New(lake, d3l.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSnapshot is the serve-many path: cold-start a replica
// from a prebuilt snapshot of the same lake.
func BenchmarkLoadSnapshot(b *testing.B) {
	lake := benchSnapshotLake(b)
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d3l.Save(engine, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d3l.Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveSnapshot measures the write side (taken under the read
// lock, so this is also the longest a snapshot delays mutations).
func BenchmarkSaveSnapshot(b *testing.B) {
	lake := benchSnapshotLake(b)
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d3l.Save(engine, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalAddRemove measures the mutation path: profiling
// a new table and splicing/deleting its keys across the four indexes.
func BenchmarkIncrementalAddRemove(b *testing.B) {
	engine, _ := benchServingSetup(b, runtime.NumCPU())
	cols := []string{"Practice", "City", "Postcode", "Payment"}
	rows := [][]string{
		{"Blackfriars", "Salford", "M3 6AF", "15530"},
		{"Radclife Care", "Manchester", "M26 2SP", "20081"},
		{"Bolton Medical", "Bolton", "BL3 6PY", "17264"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := d3l.NewTable(fmt.Sprintf("incr_%d", i), cols, rows)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Add(t); err != nil {
			b.Fatal(err)
		}
		if err := engine.Remove(t.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Coordinator path benchmark ---

// remoteBench is the world BenchmarkRemoteQuery runs in, built once a
// process: the serving benchmark's lake (the paper's Synthetic at 1 000
// derived tables), split over two shards, each behind its own serving
// stack on a loopback listener, and a shard.Remote fanning out to them —
// `d3l coordinator` over two `d3l serve` replicas with the three
// processes folded into one, so that -benchmem and -memprofile see the
// whole path. The replicas and the prober live until the process exits.
var remoteBench struct {
	once    sync.Once
	err     error
	remote  *shard.Remote
	targets []*d3l.Table
}

func remoteBenchSetup(b *testing.B) (*shard.Remote, []*d3l.Table) {
	b.Helper()
	w := &remoteBench
	w.once.Do(func() {
		cfg := datagen.DefaultSyntheticConfig()
		cfg.Seed = 1307
		lake, _, err := datagen.Synthetic(cfg)
		if err != nil {
			w.err = err
			return
		}
		set, err := shard.BuildSet(lake, 2, d3l.DefaultOptions())
		if err != nil {
			w.err = err
			return
		}
		urls := make([]string, set.NumShards())
		for i := range urls {
			rs, err := server.New(set.Shard(i), server.Config{CacheEntries: -1})
			if err != nil {
				w.err = err
				return
			}
			urls[i] = httptest.NewServer(rs).URL
		}
		if w.remote, w.err = shard.NewRemote(urls, shard.RemoteConfig{}); w.err != nil {
			return
		}
		// Targets as the serving benchmark cuts them: 64-row windows of
		// lake tables, every one a distinct table so no replica-side
		// memo answers for another.
		for id := 0; id < lake.Len() && len(w.targets) < 48; id += 7 {
			src := lake.Table(id)
			if src.Rows() < 64 {
				continue
			}
			rows := make([]int, 64)
			for r := range rows {
				rows[r] = r
			}
			t, err := src.SelectRows("target_"+src.Name, rows)
			if err != nil {
				w.err = err
				return
			}
			w.targets = append(w.targets, t)
		}
	})
	if w.err != nil {
		b.Fatal(w.err)
	}
	return w.remote, w.targets
}

// BenchmarkRemoteQuery is one cold top-10 query through the whole
// scatter-gather path — probe fan-out, depth merge, gather fan-out,
// binary partials, merge — over two in-process replicas. Its B/op and
// allocs/op are the coordinator's and both replicas' together; DESIGN.md
// "What the coordinator path costs, measured" reads them.
func BenchmarkRemoteQuery(b *testing.B) {
	remote, targets := remoteBenchSetup(b)
	ctx := context.Background()
	for _, t := range targets { // grow every pooled arena first
		if _, err := remote.Query(ctx, t, d3l.WithK(10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.Query(ctx, targets[i%len(targets)], d3l.WithK(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild is `d3l index build` without the process around
// it: load the benchmark lake's CSV directory, profile and index it,
// build the SA-join graph and encode the snapshot. DESIGN.md "What an
// index build costs, measured" reads its time, B/op and allocs/op.
func BenchmarkIndexBuild(b *testing.B) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = 1307
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := d3l.SaveLakeDir(lake, dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := d3l.LoadLakeDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		engine, err := d3l.New(loaded, d3l.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := d3l.Save(engine, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
