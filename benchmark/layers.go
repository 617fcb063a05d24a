package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/embed"
	"d3l/internal/loadgen"
	"d3l/internal/lsh"
	"d3l/internal/minhash"
	"d3l/internal/server"
	"d3l/internal/shard"
	"d3l/internal/stats"
	"d3l/internal/subject"
	"d3l/internal/table"
	"d3l/internal/tokenize"
)

// The traced run. The same lake is indexed in-process and every layer
// is timed from outside, through its public functions: each call is a
// span, a layer's figure is a mean or median of its spans. Nothing is
// instrumented inside the program under test.
//
// Query-path layers (core, server, shard) are measured like the
// end-to-end latency: every target is asked layerPasses times with its
// window shifted by one row per pass, so no cache answers, and the
// figure is the mean of the per-target minima.

const (
	layerPasses = 3
	// layerShift0 is the first shift the traced loops use; each loop
	// takes its own block of layerPasses shifts below maxShift so that
	// no two loops share a body (or a cached plan).
	layerShift0 = 1
	// sampleTables bounds the tables the per-value and per-column
	// micro-layers (tokenize, minhash, embed) walk.
	sampleTables = 150
	// shardSample bounds the targets of the shard-path loops off the
	// coordinator workload.
	shardSample  = 16
	mutateCycles = 20
)

type layerRun struct {
	tr   *tracer
	spec workloadSpec
	in   *inputs
	m    map[string]measured
	log  func(string, ...any)
	opts d3l.Options
	ctx  context.Context

	nextShift int
	request   int // next request id for spans
	// monoQuery is the per-target minimum of a whole monolith query
	// (profile and search), kept for the shard comparison.
	monoQuery []float64
}

func (l *layerRun) set(name string, value float64, n int) { l.m[name] = measured{value, n} }

// shifts hands out a block of layerPasses window shifts. Blocks are
// consecutive and wrap at maxShift; no engine is asked by more loops
// than fit before the wrap, so no loop repeats a body its engine has
// seen (or could have a cached plan for).
func (l *layerRun) shifts() int {
	if l.nextShift+layerPasses > maxShift {
		l.nextShift = layerShift0
	}
	s := l.nextShift
	l.nextShift += layerPasses
	return s
}

// shardTargets is the number of targets the shard-path loops walk: all
// of them on the coordinator workload, whose end-to-end latency they
// have to reconcile with, a sample elsewhere — they cost several times a
// monolith query each.
func (l *layerRun) shardTargets() int {
	if l.spec.topology == topoCoord {
		return len(l.in.sources)
	}
	return min(len(l.in.sources), shardSample)
}

// coldTargets builds the shifted-window target tables of the first n
// sources.
func (l *layerRun) coldTargets(n, shift int) ([]*d3l.Table, error) {
	out := make([]*d3l.Table, n)
	for i := range out {
		t, err := toTable(l.in.target(i, shift))
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// coldTimes is what a cold loop measured: the per-target minimum over
// the passes and the mean of every sample, in ms.
type coldTimes struct {
	minima  []float64
	meanAll float64
}

// coldLoop calls fn once per target and pass, each call a root span
// with its own request id.
func (l *layerRun) coldLoop(name string, n int, fn func(t *d3l.Table, parent, request int) error) (coldTimes, error) {
	shift0 := l.shifts()
	lat := make([][]float64, layerPasses)
	for p := range lat {
		targets, err := l.coldTargets(n, shift0+p)
		if err != nil {
			return coldTimes{}, err
		}
		lat[p] = make([]float64, n)
		err = quietly(func() error {
			for i, t := range targets {
				req := l.request
				l.request++
				id := l.tr.begin(name, -1, req)
				err := fn(t, id, req)
				l.tr.end(id)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				lat[p][i] = l.tr.ms(id)
			}
			return nil
		})
		if err != nil {
			return coldTimes{}, err
		}
	}
	return coldTimes{minima: slotMinima(lat, allSlots), meanAll: mean(flatten(lat, allSlots))}, nil
}

// runLayers is the in-process half of a traced run; it returns every
// per-layer metric, the ones scraped from the end-to-end half included.
func runLayers(ctx context.Context, h *harness, cfg runConfig, in *inputs, e2e *e2eResult) (map[string]measured, error) {
	l := &layerRun{
		tr:        newTracer(),
		spec:      cfg.spec,
		in:        in,
		m:         map[string]measured{},
		log:       func(format string, a ...any) { fmt.Fprintf(cfg.log, format+"\n", a...) },
		opts:      d3l.DefaultOptions(),
		ctx:       ctx,
		nextShift: layerShift0,
	}
	for name, v := range e2e.diag {
		l.m[name] = v
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"table", func() error { return l.tableLayer(e2e.lakeDir) }},
		{"tokenize, minhash, embed, simhash", l.textLayers},
		{"subject", l.subjectLayer},
		{"core build, joins, persist", l.buildLayers},
		{"shard", l.shardLayers},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("traced %s: %w", s.name, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l.log("traced: %s in %.1f s", s.name, time.Since(t0).Seconds())
	}
	l.reconcile(e2e)

	tracePath := filepath.Join(h.out, "trace.json")
	if err := l.tr.write(tracePath); err != nil {
		return nil, err
	}
	l.log("traced: %d spans in %s; self time by span name:", len(l.tr.spans), tracePath)
	for i, lt := range l.tr.selfTimes() {
		if i == 12 {
			break
		}
		l.log("  %-28s %7d calls %10.1f ms %10.1f ms self", lt.Name, lt.Calls, lt.MS, lt.SelfMS)
	}
	return l.m, nil
}

// tableLayer times the CSV reader over the lake the e2e half wrote.
func (l *layerRun) tableLayer(dir string) error {
	var lake *table.Lake
	var err error
	ms := l.tr.do("table.LoadLakeDir", -1, -1, func() { lake, err = table.LoadLakeDir(dir) })
	if err != nil {
		return err
	}
	l.set("table.csv_load_ms_per_table", ms/float64(lake.Len()), lake.Len())
	return nil
}

// textLayers walks the text columns of a sample of lake tables through
// the profiling primitives, one span per column and primitive.
func (l *layerRun) textLayers() error {
	hasher, err := minhash.NewHasher(l.opts.MinHashSize, l.opts.Seed)
	if err != nil {
		return err
	}
	planes, err := lsh.NewPlanes(embed.Dim, l.opts.EmbedBits, l.opts.Seed)
	if err != nil {
		return err
	}
	model := embed.NewModel(l.opts.Seed)
	defer quietGC()()

	var tokenMS, qgramMS, sketchMS, meanMS, simhashMS float64
	var values, names, columns int
	for _, t := range l.in.lake.Tables()[:sampleTables] {
		qgramMS += l.tr.do("tokenize.QGrams", -1, -1, func() {
			for _, c := range t.Columns {
				tokenize.QGrams(c.Name, l.opts.QGramQ)
			}
		})
		names += len(t.Columns)
		for _, c := range t.Columns {
			if c.Type == table.Numeric {
				continue
			}
			set := map[string]struct{}{}
			tokenMS += l.tr.do("tokenize.Tokens", -1, -1, func() {
				for _, v := range c.Values {
					for _, tok := range tokenize.Tokens(v) {
						set[tok] = struct{}{}
					}
				}
			})
			values += len(c.Values)
			words := make([]string, 0, len(set))
			for w := range set {
				words = append(words, w)
			}
			sketchMS += l.tr.do("minhash.Hasher.Sketch", -1, -1, func() { hasher.Sketch(words) })
			var vec []float64
			meanMS += l.tr.do("embed.Model.Mean", -1, -1, func() { vec = model.Mean(words) })
			simhashMS += l.tr.do("lsh.Planes.Sketch", -1, -1, func() { _, err = planes.Sketch(vec) })
			if err != nil {
				return err
			}
			columns++
		}
	}
	// The token loop also fills a set; that is the caller's cost in the
	// profiler too, and small beside tokenisation itself.
	l.set("tokenize.tokens_ns_per_value", tokenMS*1e6/float64(values), values)
	l.set("tokenize.qgrams_ns_per_name", qgramMS*1e6/float64(names), names)
	l.set("minhash.sketch_us_per_column", sketchMS*1e3/float64(columns), columns)
	l.set("embed.mean_us_per_column", meanMS*1e3/float64(columns), columns)
	l.set("lsh.simhash_sketch_us", simhashMS*1e3/float64(columns), columns)
	return nil
}

func (l *layerRun) subjectLayer() error {
	clf := subject.Default()
	tables := l.in.lake.Tables()[:2*sampleTables]
	defer quietGC()()
	var ms float64
	for _, t := range tables {
		ms += l.tr.do("subject.Classifier.SubjectIndex", -1, -1, func() { clf.SubjectIndex(t) })
	}
	l.set("subject.classify_us_per_table", ms*1e3/float64(len(tables)), len(tables))
	return nil
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// buildLayers indexes the lake (core), builds the join graph (joins),
// snapshots and reloads it (persist), then measures everything that
// needs an engine: the lsh and stats primitives over its profiles, the
// core query and mutation paths, and the server handlers.
func (l *layerRun) buildLayers() error {
	heap0 := heapMB()
	var eng *d3l.Engine
	var err error
	buildMS := l.tr.do("core.BuildEngine", -1, -1, func() { eng, err = d3l.New(l.in.lake, l.opts) })
	if err != nil {
		return err
	}
	l.set("core.build_s", buildMS/1e3, 1)
	l.set("core.heap_mb", heapMB()-heap0, 1)

	graphMS := l.tr.do("joins.BuildGraph", -1, -1, func() { eng.JoinGraphEdges() })
	l.set("joins.graph_build_s", graphMS/1e3, 1)

	var snap bytes.Buffer
	if err := d3l.Save(eng, &snap); err != nil {
		return err
	}
	var saves, loads []float64
	var loaded *d3l.Engine
	for i := 0; i < 2; i++ {
		saves = append(saves, l.tr.do("d3l.Save", -1, -1, func() { err = d3l.Save(eng, io.Discard) }))
		if err != nil {
			return err
		}
		loads = append(loads, l.tr.do("d3l.Load", -1, -1, func() { loaded, err = d3l.Load(bytes.NewReader(snap.Bytes())) }))
		if err != nil {
			return err
		}
	}
	l.set("persist.save_s", minOf(saves)/1e3, len(saves))
	l.set("persist.load_s", minOf(loads)/1e3, len(loads))
	l.set("persist.bytes_per_attr", float64(snap.Len())/float64(eng.NumAttributes()), eng.NumAttributes())

	// Everything below runs on engines loaded from the snapshot, as the
	// binary does. The core engine is a second decode of the same bytes:
	// the public engine does not expose the one it wraps.
	ce, err := core.LoadEngine(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	// One request, one core — as the servers of the end-to-end half run
	// (serveWorkers), or the layers would not add up to its latency.
	for _, e := range []interface{ SetParallelism(int) error }{eng, loaded, ce} {
		if err := e.SetParallelism(1); err != nil {
			return err
		}
	}
	if err := l.joinsQuery(eng); err != nil {
		return err
	}
	eng = nil // the built engine is done; let the collector have it
	if err := l.lshAndStats(ce); err != nil {
		return err
	}
	if err := l.coreLayers(ce); err != nil {
		return err
	}
	return l.serverLayers(loaded)
}

func (l *layerRun) joinsQuery(eng *d3l.Engine) error {
	n := min(len(l.in.sources), shardSample)
	times, err := l.coldLoop("joins.Query", n, func(t *d3l.Table, _, _ int) error {
		_, err := eng.Query(l.ctx, t, d3l.WithK(queryK), d3l.WithJoins())
		return err
	})
	if err != nil {
		return err
	}
	l.set("joins.query_ms", mean(times.minima), n*layerPasses)
	return nil
}

// lshAndStats times the forest and the KS/ECDF primitives over the
// engine's own attribute profiles.
func (l *layerRun) lshAndStats(ce *core.Engine) error {
	n := ce.NumAttributes()
	forest, err := lsh.NewForest(l.opts.ForestTrees, l.opts.ForestHashes)
	if err != nil {
		return err
	}
	defer quietGC()()
	buildMS := l.tr.do("lsh.Forest.Add+Index", -1, -1, func() {
		for id := 0; id < n && err == nil; id++ {
			err = forest.Add(int32(id), ce.Profile(id).QSig)
		}
		forest.Index()
	})
	if err != nil {
		return err
	}
	l.set("lsh.forest_build_ms", buildMS, n)

	const probes = 1000
	var queryMS, insertMS, deleteMS float64
	var dst []int32
	for i := 0; i < probes; i++ {
		sig := ce.Profile(i * n / probes).QSig
		queryMS += l.tr.do("lsh.Forest.QueryInto", -1, -1, func() { dst, err = forest.QueryInto(sig, 64, dst[:0]) })
		if err != nil {
			return err
		}
	}
	for i := 0; i < probes; i++ {
		sig := ce.Profile(i * n / probes).TSig
		insertMS += l.tr.do("lsh.Forest.Insert", -1, -1, func() { err = forest.Insert(int32(n+i), sig) })
		if err != nil {
			return err
		}
	}
	for i := 0; i < probes; i++ {
		sig := ce.Profile(i * n / probes).TSig
		deleteMS += l.tr.do("lsh.Forest.Delete", -1, -1, func() { _, err = forest.Delete(int32(n+i), sig) })
		if err != nil {
			return err
		}
	}
	l.set("lsh.forest_query_us", queryMS*1e3/probes, probes)
	l.set("lsh.forest_insert_us", insertMS*1e3/probes, probes)
	l.set("lsh.forest_delete_us", deleteMS*1e3/probes, probes)

	var extents [][]float64
	for id := 0; id < n && len(extents) < 400; id++ {
		if p := ce.Profile(id); len(p.NumExtent) > 0 {
			extents = append(extents, p.NumExtent)
		}
	}
	if len(extents) < 2 {
		return fmt.Errorf("lake has %d numeric attributes, need 2", len(extents))
	}
	var ksMS, ecdfMS float64
	for i := range extents {
		a, b := extents[i], extents[(i+1)%len(extents)]
		ksMS += l.tr.do("stats.KolmogorovSmirnovSorted", -1, -1, func() { _, err = stats.KolmogorovSmirnovSorted(a, b) })
		if err != nil {
			return err
		}
		ecdfMS += l.tr.do("stats.NewECDF", -1, -1, func() { _, err = stats.NewECDF(a) })
		if err != nil {
			return err
		}
	}
	l.set("stats.ks_us", ksMS*1e3/float64(len(extents)), len(extents))
	l.set("stats.ecdf_build_us", ecdfMS*1e3/float64(len(extents)), len(extents))
	return nil
}

// coreLayers measures the query path of the engine — target profiling,
// the search with its four stages, the shard probe/gather/merge path —
// and its mutations.
func (l *layerRun) coreLayers(ce *core.Engine) error {
	n := len(l.in.sources)
	spec := core.QuerySpec{K: queryK}

	profile, err := l.coldLoop("core.ProfileTarget", n, func(t *d3l.Table, _, _ int) error {
		ce.ProfileTarget(t)
		return nil
	})
	if err != nil {
		return err
	}
	l.set("core.profile_target_ms", mean(profile.minima), n*layerPasses)

	// Untraced: one span around SearchSpec and nothing inside, with the
	// allocation and work counters read around the loop.
	var pairs, scored, pruned int
	var ms0, ms1 runtime.MemStats
	totals0 := ce.PlannerTotals()
	runtime.ReadMemStats(&ms0)
	plain, err := l.coldLoop("core.SearchSpec", n, func(t *d3l.Table, _, _ int) error {
		res, err := ce.SearchSpec(l.ctx, t, spec)
		if err != nil {
			return err
		}
		pairs += res.Stats.CandidatePairs
		scored += res.Stats.TablesScored
		pruned += res.Plan.TablesPruned
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	totals1 := ce.PlannerTotals()
	l.monoQuery = plain.minima
	calls := float64(n * layerPasses)
	// SearchSpec profiles the target itself; the figure reported as
	// search is the rest of it.
	search := mean(plain.minima) - mean(profile.minima)
	l.set("core.search_ms", search, n*layerPasses)
	l.set("core.candidate_pairs_per_query", float64(pairs)/calls, n*layerPasses)
	l.set("core.tables_scored_per_query", float64(scored)/calls, n*layerPasses)
	l.set("core.tables_pruned_per_query", float64(pruned)/calls, n*layerPasses)
	// The loop's own garbage (window tables, spans) is in these two, a
	// constant few kB per call; the engine's share is what moves.
	l.set("core.search_allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/calls, n*layerPasses)
	l.set("core.search_alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/calls, n*layerPasses)
	hits := float64(totals1.PlanCacheHits - totals0.PlanCacheHits)
	misses := float64(totals1.PlanCacheMisses - totals0.PlanCacheMisses)
	l.set("core.plan_cache_hit_ratio", hits/max(hits+misses, 1), int(hits+misses))

	// Traced: the stage observer reports each stage as a child span.
	var parent, request int
	stageSum := make([][]float64, core.NumQueryStages)
	ce.SetStageObserver(func(s core.QueryStage, d time.Duration) {
		l.tr.closed("core.stage."+s.String(), parent, request, d)
		stageSum[s] = append(stageSum[s], float64(d)/1e6)
	})
	traced, err := l.coldLoop("core.SearchSpec", n, func(t *d3l.Table, id, req int) error {
		parent, request = id, req
		_, err := ce.SearchSpec(l.ctx, t, spec)
		return err
	})
	ce.SetStageObserver(nil)
	if err != nil {
		return err
	}
	var stages float64
	for s := core.QueryStage(0); s < core.NumQueryStages; s++ {
		// Mean over every traced call: a stage that did not run for a
		// query (none today) still divides by all of them.
		var sum float64
		for _, v := range stageSum[s] {
			sum += v
		}
		v := sum / calls
		stages += v
		l.set("core.stage_"+s.String()+"_ms", v, len(stageSum[s]))
	}
	// Stage means are over all samples, so the remainder is taken on
	// that scale too, not on the slot minima.
	l.set("core.search_unattributed_ms", traced.meanAll-profile.meanAll-stages, n*layerPasses)
	l.set("trace.overhead_ratio", mean(traced.minima)/mean(plain.minima), n*layerPasses)

	// The shard path on the same engine: one shard holding everything.
	ns := min(n, shardSample)
	var probeMS, gatherMS, mergeMS float64
	_, err = l.coldLoop("core.ShardQuery", ns, func(t *d3l.Table, id, req int) error {
		var probe *core.ShardProbe
		var depths *core.ShardDepths
		var partial *core.ShardPartial
		var err error
		probeMS += l.tr.do("core.ShardProbeSpec", id, req, func() { probe, err = ce.ShardProbeSpec(l.ctx, t, spec) })
		if err != nil {
			return err
		}
		if depths, err = core.MergeProbeDepths([]*core.ShardProbe{probe}); err != nil {
			return err
		}
		gatherMS += l.tr.do("core.ShardGatherSpec", id, req, func() { partial, err = ce.ShardGatherSpec(l.ctx, t, spec, depths) })
		if err != nil {
			return err
		}
		mergeMS += l.tr.do("core.MergeShardPartials", id, req, func() {
			_, _, err = core.MergeShardPartials(depths, []*core.ShardPartial{partial})
		})
		return err
	})
	if err != nil {
		return err
	}
	shardCalls := float64(ns * layerPasses)
	l.set("core.shard_probe_ms", probeMS/shardCalls, ns*layerPasses)
	l.set("core.shard_gather_ms", gatherMS/shardCalls, ns*layerPasses)
	l.set("core.shard_merge_ms", mergeMS/shardCalls, ns*layerPasses)

	// Mutations: the scratch table added, one column updated, removed.
	added, err := toTable(l.in.scratchTable(false))
	if err != nil {
		return err
	}
	updated, err := toTable(l.in.scratchTable(true))
	if err != nil {
		return err
	}
	var adds, updates, removes []float64
	var reprofiled int
	defer quietGC()()
	for i := 0; i < mutateCycles; i++ {
		adds = append(adds, l.tr.do("core.Add", -1, -1, func() { _, err = ce.Add(added) }))
		if err != nil {
			return err
		}
		var st core.UpdateStats
		updates = append(updates, l.tr.do("core.Update", -1, -1, func() { st, err = ce.Update(updated) }))
		if err != nil {
			return err
		}
		reprofiled += st.Reprofiled
		removes = append(removes, l.tr.do("core.Remove", -1, -1, func() { err = ce.Remove(scratchName) }))
		if err != nil {
			return err
		}
	}
	l.set("core.add_ms", median(adds), mutateCycles)
	l.set("core.update_ms", median(updates), mutateCycles)
	l.set("core.remove_ms", median(removes), mutateCycles)
	l.set("core.update_reprofiled_cols", float64(reprofiled)/mutateCycles, mutateCycles)
	return nil
}

// serverLayers times the HTTP handlers of internal/server in-process
// over the snapshot-loaded engine: a cache miss, a cache hit, request
// decode and answer encode on their own, and the mutation endpoints.
func (l *layerRun) serverLayers(eng *d3l.Engine) error {
	srv, err := server.New(eng, server.Config{})
	if err != nil {
		return err
	}
	// The repo's own in-process driver: the serving stack without sockets.
	hd := loadgen.HandlerDoer{Handler: srv}
	n := len(l.in.sources)
	shift0 := l.shifts()
	call := func(name string, o *op) (float64, []byte, error) {
		var status int
		var body []byte
		var err error
		ms := l.tr.do(name, -1, -1, func() {
			status, body, err = hd.Do(loadgen.Request{Method: o.method, Path: o.path, Body: o.body})
		})
		if msg := failure(o, status, body, err); msg != "" {
			return 0, nil, fmt.Errorf("%s: %s", name, msg)
		}
		return ms, body, nil
	}

	// Misses: cold bodies, per-source minimum over the passes.
	miss := make([][]float64, layerPasses)
	var bodies, answers [][]byte
	for p := range miss {
		ops := l.in.coldPass(n, shift0+p)
		miss[p] = make([]float64, n)
		err := quietly(func() error {
			for i := range ops {
				ms, answer, err := call("server.ServeHTTP.miss", &ops[i])
				if err != nil {
					return err
				}
				miss[p][i] = ms
				if p == 0 {
					bodies = append(bodies, ops[i].body)
					answers = append(answers, append([]byte(nil), answer...))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	missMS := mean(slotMinima(miss, allSlots))
	l.set("server.query_miss_ms", missMS, n*layerPasses)
	l.set("server.overhead_ms", missMS-l.m["core.profile_target_ms"].value-l.m["core.search_ms"].value, n*layerPasses)

	// Hits: the last pass's bodies are all cached now.
	hot := l.in.coldPass(min(n, 16), shift0+layerPasses-1)
	hit := make([][]float64, hotProbePasses)
	for p := range hit {
		hit[p] = make([]float64, hotProbeReads/hotProbePasses)
		err := quietly(func() error {
			for i := range hit[p] {
				ms, _, err := call("server.ServeHTTP.hit", &hot[i%len(hot)])
				if err != nil {
					return err
				}
				hit[p][i] = ms
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	l.set("server.query_hit_us", 1e3*mean(slotMinima(hit, allSlots)), hotProbeReads)

	// Decode and encode on their own, with the server's wire types.
	var decodeMS, encodeMS float64
	err = quietly(func() error {
		for i := range bodies {
			var req server.QueryRequest
			var err error
			decodeMS += l.tr.do("server.decode", -1, -1, func() { err = json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&req) })
			if err != nil {
				return err
			}
			var resp server.QueryResponse
			if err := json.Unmarshal(answers[i], &resp); err != nil {
				return err
			}
			encodeMS += l.tr.do("server.encode", -1, -1, func() { _, err = json.Marshal(resp) })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("server.decode_us", decodeMS*1e3/float64(n), n)
	l.set("server.encode_us", encodeMS*1e3/float64(n), n)

	// Mutations through the handlers.
	writes := l.in.writeOps()
	var mutations []float64
	defer quietGC()()
	for i := 0; i < mutateCycles; i++ {
		for w := range writes {
			ms, _, err := call("server.ServeHTTP.mutation", &writes[w])
			if err != nil {
				return err
			}
			mutations = append(mutations, ms)
		}
	}
	l.set("server.mutation_ms", median(mutations), len(mutations))
	return nil
}

// shardLayers builds a two-shard set of the same lake and asks it the
// same cold questions in-process and through shard.Remote over
// loopback HTTP (httptest), beside the monolith on the same targets.
func (l *layerRun) shardLayers() error {
	var set *shard.Set
	var err error
	buildMS := l.tr.do("shard.BuildSet", -1, -1, func() { set, err = shard.BuildSet(l.in.lake, 2, l.opts) })
	if err != nil {
		return err
	}
	l.set("shard.build_set_s", buildMS/1e3, 1)
	for i := 0; i < set.NumShards(); i++ {
		if err := set.Shard(i).SetParallelism(1); err != nil {
			return err
		}
	}

	n := l.shardTargets()
	setMin, err := l.coldLoop("shard.Set.Query", n, func(t *d3l.Table, _, _ int) error {
		_, err := set.Query(l.ctx, t, d3l.WithK(queryK))
		return err
	})
	if err != nil {
		return err
	}

	var urls []string
	for i := 0; i < set.NumShards(); i++ {
		srv, err := server.New(set.Shard(i), server.Config{})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	remote, err := shard.NewRemote(urls, shard.RemoteConfig{})
	if err != nil {
		return err
	}
	defer remote.Close()
	remoteMin, err := l.coldLoop("shard.Remote.Query", n, func(t *d3l.Table, _, _ int) error {
		_, err := remote.Query(l.ctx, t, d3l.WithK(queryK))
		return err
	})
	if err != nil {
		return err
	}

	// The monolith's figure for the same n targets.
	setMS, remoteMS := mean(setMin.minima), mean(remoteMin.minima)
	l.set("shard.set_query_ms", setMS, n*layerPasses)
	l.set("shard.remote_query_ms", remoteMS, n*layerPasses)
	l.set("shard.wire_overhead_ms", remoteMS-setMS, n*layerPasses)
	l.set("shard.set_vs_mono_ratio", setMS/mean(l.monoQuery[:n]), n*layerPasses)
	return nil
}

// reconcile states how much of the end-to-end latency the layer figures
// account for. A miss costs transport plus the miss handler (through
// the coordinator: its own handler overhead plus the remote
// scatter-gather); a hit costs transport plus the hit handler; phase A
// mixes them by its measured hit share. The gap is reported, never
// tuned away.
func (l *layerRun) reconcile(e2e *e2eResult) {
	v := func(name string) float64 { return l.m[name].value }
	transportMS := e2e.hotHitMS - v("server.query_hit_us")/1e3
	l.set("transport.http_roundtrip_us", transportMS*1e3, hotProbeReads)
	missMS := transportMS + v("server.query_miss_ms")
	if l.spec.topology == topoCoord {
		missMS = transportMS + v("server.overhead_ms") + v("shard.remote_query_ms")
	}
	hitMS := transportMS + v("server.query_hit_us")/1e3
	explained := e2e.hitShareA*hitMS + (1-e2e.hitShareA)*missMS
	gap := e2e.meanSlotMinMS - explained
	l.set("run.explained_ms", explained, 1)
	l.set("run.unexplained_ms", gap, 1)
	l.set("run.unexplained_ratio", gap/e2e.meanSlotMinMS, 1)
	l.log("reconciliation: end-to-end mean %.3f ms = explained %.3f ms + unexplained %.3f ms (%.1f%%, tolerance %.0f%%)",
		e2e.meanSlotMinMS, explained, gap, 100*gap/e2e.meanSlotMinMS, 100*unexplainedTolerance)
	if r := gap / e2e.meanSlotMinMS; r > unexplainedTolerance || r < -unexplainedTolerance {
		l.log("WARNING: the layers do not account for the end-to-end latency within tolerance; see README.md, Reconciliation")
	}
}
