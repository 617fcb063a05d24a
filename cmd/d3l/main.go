// Command d3l is the CLI for the D3L dataset-discovery library: it
// generates evaluation lakes, indexes CSV directories (once, into a
// reusable binary snapshot), answers top-k discovery queries (with or
// without join augmentation), and re-runs every experiment of the
// paper's evaluation.
//
// Usage:
//
//	d3l generate    -kind synthetic|real|larger -out DIR [-tables N] [-seed N]
//	d3l index build -dir DIR -out FILE.d3l [-workers N] [-shards N -out DIR]
//	d3l index info  -index FILE.d3l
//	d3l query       -dir DIR | -index FILE.d3l  -target FILE.csv -k K
//	                [-joins] [-explain NAME] [-evidence name,value,...] [-budget N]
//	                [-explain-plan]
//	d3l batch       -dir DIR | -index FILE.d3l  -targets DIR -k K [-workers N]
//	d3l explain     -dir DIR | -index FILE.d3l  -target FILE.csv -table NAME
//	d3l serve       -index FILE.d3l | -dir DIR  [-addr :8080] [-pprof 127.0.0.1:6060] [-watch]
//	d3l watch       -dir DIR [-index FILE.d3l] [-interval D]
//	d3l loadgen     -url URL | -direct  -index FILE.d3l | -dir DIR  [-duration D] [-seed N]
//	                [-mix topk=4,query=4,batch=1,mutate=1,update=1] [-out FILE.json] [-max-p99 D]
//	d3l stats       -dir DIR
//	d3l exp         -id all|fig2|tab1|exp1..exp11|weights [-scale small|paper]
//
// query and exp accept -cpuprofile FILE / -memprofile FILE to capture
// pprof profiles of a run; serve and coordinator mount the live
// net/http/pprof endpoints on a separate loopback listener via -pprof.
//
// The build-once/serve-many flow: `d3l index build` profiles and
// indexes a CSV directory and snapshots the engine to disk; `d3l query
// -index` (and batch/explain) then cold-start from the snapshot in
// milliseconds instead of re-profiling the lake, returning the same
// results as the direct -dir path; `d3l serve -index` turns the same
// snapshot into a long-running HTTP JSON service with result caching,
// admission control, hot reload (SIGHUP) and graceful shutdown.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"d3l"
	"d3l/internal/datagen"
	"d3l/internal/experiments"
	"d3l/internal/persist"
	"d3l/internal/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "batch":
		err = cmdBatch(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "coordinator":
		err = cmdCoordinator(os.Args[2:])
	case "faultproxy":
		err = cmdFaultproxy(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "d3l: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "d3l:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  d3l generate    -kind synthetic|real|larger -out DIR [-tables N] [-seed N]
  d3l index build -dir DIR -out FILE.d3l [-workers N]  (or -shards N -out DIR for a sharded snapshot set)
  d3l index info  -index FILE.d3l
  d3l query       -dir DIR | -index FILE.d3l  -target FILE.csv -k K
                  [-joins] [-explain NAME] [-evidence name,value,...] [-budget N]
                  [-explain-plan]
  d3l batch       -dir DIR | -index FILE.d3l  -targets DIR -k K [-workers N]
  d3l explain     -dir DIR | -index FILE.d3l  -target FILE.csv -table NAME
  d3l serve       -index FILE.d3l | -dir DIR  [-addr :8080] [-cache N] [-max-concurrent N] [-timeout D] [-pprof ADDR]
                  [-watch] [-watch-interval D] [-shards N]  (with -shards N, -index names a shard manifest)
  d3l coordinator -shard URL[,URL...] [-shard ...]  [-addr :8080] [-cache N] [-shard-timeout D] [-retries N]
                  [-retry-delay D] [-hedge-after D] [-probe-interval D] [-breaker-failures N] [-breaker-rate F]
                  [-breaker-backoff D] [-pprof ADDR]  (comma-separated URLs are replicas of one shard; GET /v1/readyz reports
                  503 while any shard group has no healthy replica)
  d3l faultproxy  -target URL [-listen :8191] [-seed N] [-latency D -latency-prob F] [-error-prob F]
                  [-reset-prob F] [-truncate-prob F] [-blackhole-prob F]  (POST /_fault/rules re-arms at runtime)
  d3l watch       -dir DIR [-index FILE.d3l] [-interval D]
  d3l loadgen     -url URL [-url URL ...] | -direct  -index FILE.d3l | -dir DIR  [-duration D] [-warmup D]
                  [-workers N] [-seed N] [-mix topk=4,query=4,batch=1,mutate=1,update=1] [-out FILE.json]
                  [-fail-on-5xx] [-max-p99 D] [-require-metrics]
  d3l stats       -dir DIR
  d3l exp         -id all|fig2|tab1|exp1..exp11|weights [-scale small|paper]
  (query and exp also take -cpuprofile FILE and -memprofile FILE)`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "synthetic", "lake kind: synthetic, real, larger")
	out := fs.String("out", "", "output directory")
	tables := fs.Int("tables", 0, "table count (0 = default)")
	seed := fs.Uint64("seed", 42, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	var lake *d3l.Lake
	var err error
	switch *kind {
	case "synthetic":
		cfg := datagen.DefaultSyntheticConfig()
		cfg.Seed = *seed
		if *tables > 0 {
			cfg.DerivedTables = *tables
		}
		lake, _, err = datagen.Synthetic(cfg)
	case "real":
		cfg := datagen.DefaultRealConfig()
		cfg.Seed = *seed
		if *tables > 0 {
			cfg.TablesPerInstance = (*tables + cfg.ScenarioInstances - 1) / cfg.ScenarioInstances
		}
		lake, _, err = datagen.Real(cfg)
	case "larger":
		cfg := datagen.DefaultLargerConfig()
		cfg.Seed = *seed
		if *tables > 0 {
			cfg.Tables = *tables
		}
		lake, _, err = datagen.Larger(cfg)
	default:
		return fmt.Errorf("generate: unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if err := d3l.SaveLakeDir(lake, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %d tables to %s\n", lake.Len(), *out)
	return nil
}

// loadEngine resolves the two engine sources: a prebuilt snapshot
// (instant cold-start) or a CSV directory (profile and index now).
// Exactly one of index and dir must be set.
func loadEngine(dir, index string) (*d3l.Engine, error) {
	if (dir == "") == (index == "") {
		return nil, fmt.Errorf("exactly one of -dir and -index is required")
	}
	if index != "" {
		return d3l.LoadFile(index)
	}
	lake, err := d3l.LoadLakeDir(dir)
	if err != nil {
		return nil, err
	}
	return d3l.New(lake, d3l.DefaultOptions())
}

// cmdIndex implements the build-once half of the serving flow: build
// snapshots an indexed lake to disk, info inspects a snapshot.
func cmdIndex(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("index: expected a subcommand: build or info")
	}
	switch args[0] {
	case "build":
		return cmdIndexBuild(args[1:])
	case "info":
		return cmdIndexInfo(args[1:])
	default:
		return fmt.Errorf("index: unknown subcommand %q (want build or info)", args[0])
	}
}

func cmdIndexBuild(args []string) error {
	fs := flag.NewFlagSet("index build", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	out := fs.String("out", "", "output snapshot file (a directory with -shards > 1)")
	workers := fs.Int("workers", 0, "profiling parallelism (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "split the lake across this many shards: write one snapshot per shard plus a manifest into -out")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *out == "" {
		return fmt.Errorf("index build: -dir and -out are required")
	}
	if *shards < 1 {
		return fmt.Errorf("index build: -shards must be at least 1, got %d", *shards)
	}
	start := time.Now()
	lake, err := d3l.LoadLakeDir(*dir)
	if err != nil {
		return err
	}
	loaded := time.Since(start)
	opts := d3l.DefaultOptions()
	opts.Parallelism = *workers
	if *shards > 1 {
		return buildShardedIndex(lake, opts, *shards, *out, loaded)
	}
	start = time.Now()
	engine, err := d3l.New(lake, opts)
	if err != nil {
		return err
	}
	built := time.Since(start)
	// The SA-join graph is part of the snapshot; built here, it runs on
	// this build's -workers like the profiling before it.
	start = time.Now()
	edges := engine.JoinGraphEdges()
	graphed := time.Since(start)
	// -workers tunes the fan-out of this build only. Parallelism is a
	// property of the serving host, so the snapshot records the
	// GOMAXPROCS default rather than baking the build machine's setting
	// into every future replica.
	if err := engine.SetParallelism(0); err != nil {
		return err
	}
	start = time.Now()
	if err := d3l.SaveFile(engine, *out); err != nil {
		return err
	}
	saved := time.Since(start)
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d tables (%d attributes) in %v\n",
		lake.Len(), engine.NumAttributes(), built.Round(time.Millisecond))
	fmt.Printf("wrote %s (%d bytes, %d join edges)\n", *out, st.Size(), edges)
	bt := engine.BuildTimings()
	fmt.Printf("phases: load %v, profile %v, index %v, graph %v, save %v\n",
		loaded.Round(time.Millisecond), bt.Profile.Round(time.Millisecond), bt.Index.Round(time.Millisecond),
		graphed.Round(time.Millisecond), saved.Round(time.Millisecond))
	return nil
}

// buildShardedIndex is the `index build -shards N` path: split the
// lake across a consistent-hash ring of N engines and snapshot each
// shard plus the manifest that ties them back together. Any
// participant — `d3l serve -shards N -index DIR` in one process, or N
// `d3l serve` replicas under a `d3l coordinator` — reconstructs the
// identical placement from the manifest alone.
func buildShardedIndex(lake *d3l.Lake, opts d3l.Options, shards int, out string, loaded time.Duration) error {
	start := time.Now()
	set, err := shard.BuildSet(lake, shards, opts)
	if err != nil {
		return err
	}
	built := time.Since(start)
	// As in the monolith path: every shard's snapshot carries an SA-join
	// graph, built here on this build's -workers; and parallelism is a
	// serving-host property, so snapshots record the GOMAXPROCS default,
	// not this build machine's -workers.
	start = time.Now()
	for i := 0; i < set.NumShards(); i++ {
		set.Shard(i).JoinGraphEdges()
		if err := set.Shard(i).SetParallelism(0); err != nil {
			return err
		}
	}
	graphed := time.Since(start)
	start = time.Now()
	if err := shard.WriteSet(set, out); err != nil {
		return err
	}
	saved := time.Since(start)
	perShard := make([]int, set.NumShards())
	for _, name := range set.Tables() {
		perShard[set.Placement().Owner(name)]++
	}
	fmt.Printf("indexed %d tables (%d attributes) across %d shards in %v\n",
		lake.Len(), set.NumAttributes(), shards, built.Round(time.Millisecond))
	fmt.Printf("wrote %s (tables per shard: %v)\n", out, perShard)
	fmt.Printf("phases: load %v, profile and index %v, graph %v, save %v\n",
		loaded.Round(time.Millisecond), built.Round(time.Millisecond), graphed.Round(time.Millisecond), saved.Round(time.Millisecond))
	return nil
}

func cmdIndexInfo(args []string) error {
	fs := flag.NewFlagSet("index info", flag.ExitOnError)
	index := fs.String("index", "", "snapshot file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *index == "" {
		return fmt.Errorf("index info: -index is required")
	}
	data, err := os.ReadFile(*index)
	if err != nil {
		return err
	}
	dec, err := persist.NewDecoder(data)
	if err != nil {
		return err
	}
	// The decoder above only serves the section-size report; the engine
	// goes through the public Load path so the printed load time is
	// exactly what a serving replica pays (the duplicate checksum pass
	// is noise next to profile decoding).
	start := time.Now()
	engine, err := d3l.Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	loaded := time.Since(start)
	sizes := dec.SectionSizes()
	fmt.Printf("snapshot:      %s (%d bytes, format v%d)\n", *index, len(data), dec.Version())
	fmt.Printf("tables:        %d\n", engine.Lake().Len())
	fmt.Printf("attributes:    %d\n", engine.NumAttributes())
	fmt.Printf("index bytes:   %d\n", engine.IndexSpaceBytes())
	fmt.Printf("join edges:    %d\n", engine.JoinGraphEdges())
	fmt.Printf("load time:     %v\n", loaded.Round(time.Microsecond))
	for _, s := range []struct {
		id   uint32
		name string
	}{
		{persist.SecOptions, "options"},
		{persist.SecLake, "lake meta"},
		{persist.SecAttrs, "profiles"},
		{persist.SecForests, "forests"},
		{persist.SecJoinGraph, "join graph"},
	} {
		if n, ok := sizes[s.id]; ok {
			fmt.Printf("  section %-12s %d bytes\n", s.name, n)
		}
	}
	return nil
}

// queryContext returns a context cancelled by Ctrl-C / SIGTERM, so an
// interrupted CLI query exits through the engine's cooperative
// cancellation (the same plumbing the server uses to free admission
// slots) instead of being killed mid-computation.
func queryContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// withProfiles runs fn under the optional -cpuprofile/-memprofile
// instrumentation: the CPU profile covers fn end to end, and the heap
// profile is written after fn returns (post-GC, so it shows live
// retention, not transient garbage). Empty paths disable the
// corresponding profile.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// parseEvidenceList resolves a comma-separated -evidence flag into
// query options (empty means all five evidence types).
func parseEvidenceList(list string) ([]d3l.QueryOption, error) {
	if list == "" {
		return nil, nil
	}
	var types []d3l.Evidence
	for _, part := range strings.Split(list, ",") {
		ev, err := d3l.ParseEvidence(part)
		if err != nil {
			return nil, err
		}
		types = append(types, ev)
	}
	return []d3l.QueryOption{d3l.WithEvidence(types...)}, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	index := fs.String("index", "", "prebuilt snapshot (alternative to -dir)")
	targetPath := fs.String("target", "", "target table CSV")
	k := fs.Int("k", 10, "answer size")
	withJoins := fs.Bool("joins", false, "augment with SA-join paths (D3L+J)")
	budget := fs.Int("budget", 0, "candidate budget per target attribute per index (0 = derived from k)")
	evidence := fs.String("evidence", "", "comma-separated evidence subset: name,value,format,embedding,domain (empty = all)")
	explainFor := fs.String("explain", "", "also print the Table I-style breakdown against this lake table")
	explainPlan := fs.Bool("explain-plan", false, "print the query plan the engine executed (evidence cascade, cache state, pruning counters)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targetPath == "" {
		return fmt.Errorf("query: -target is required")
	}
	return withProfiles(*cpuprofile, *memprofile, func() error {
		return runQuery(*dir, *index, *targetPath, *k, *withJoins, *budget, *evidence, *explainFor, *explainPlan)
	})
}

func runQuery(dir, index, targetPath string, k int, withJoins bool, budget int, evidence, explainFor string, explainPlan bool) error {
	engine, err := loadEngine(dir, index)
	if err != nil {
		return err
	}
	target, err := d3l.ReadCSVFile(targetPath)
	if err != nil {
		return err
	}
	opts := []d3l.QueryOption{d3l.WithK(k)}
	if withJoins {
		opts = append(opts, d3l.WithJoins())
	}
	if budget > 0 {
		opts = append(opts, d3l.WithCandidateBudget(budget))
	}
	if explainFor != "" {
		opts = append(opts, d3l.WithExplainFor(explainFor))
	}
	evOpts, err := parseEvidenceList(evidence)
	if err != nil {
		return err
	}
	opts = append(opts, evOpts...)

	ctx, stop := queryContext()
	defer stop()
	ans, err := engine.Query(ctx, target, opts...)
	if err != nil {
		return err
	}
	if withJoins {
		fmt.Printf("%-24s %-9s %-9s %-9s %s\n", "table", "distance", "coverage", "cov+J", "paths")
		for _, a := range ans.Joins {
			fmt.Printf("%-24s %-9.3f %-9.2f %-9.2f %d\n",
				a.Result.Name, a.Result.Distance, a.BaseCoverage, a.JoinCoverage, len(a.Paths))
		}
	} else {
		fmt.Printf("%-24s %-9s %s\n", "table", "distance", "aligned target columns")
		for _, r := range ans.Results {
			fmt.Printf("%-24s %-9.3f %d/%d\n", r.Name, r.Distance, len(r.Alignments), target.Arity())
		}
	}
	if explainFor != "" {
		fmt.Printf("\nTable I breakdown vs %s:\n%s", explainFor, d3l.FormatExplanation(ans.Explanation))
	}
	// An explanation-only query (-k 0) ranks nothing and has no plan.
	if explainPlan && ans.Plan.Enabled {
		state := "cold"
		if ans.Plan.Cached {
			state = "cached"
		}
		fmt.Printf("plan: cascade %s (%s) — pruned %d tables (%d pairs), elided %d evidence evals\n",
			ans.Plan.Order, state, ans.Plan.TablesPruned, ans.Plan.PairsPruned, ans.Plan.EvidenceEvalsElided)
	}
	fmt.Printf("scored %d tables from %d candidate pairs in %v\n",
		ans.Stats.TablesScored, ans.Stats.CandidatePairs, ans.Stats.Elapsed.Round(time.Microsecond))
	return nil
}

// cmdBatch is the serving-shaped workload: index one lake, then answer
// a whole directory of target tables concurrently through BatchTopK.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	index := fs.String("index", "", "prebuilt snapshot (alternative to -dir)")
	targetsDir := fs.String("targets", "", "directory of target table CSVs")
	k := fs.Int("k", 10, "answer size per target")
	workers := fs.Int("workers", 0, "concurrent queries (0 keeps GOMAXPROCS for -dir or the snapshot's setting for -index)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targetsDir == "" {
		return fmt.Errorf("batch: -targets is required")
	}
	engine, err := func() (*d3l.Engine, error) {
		if *index != "" || *dir == "" {
			return loadEngine(*dir, *index)
		}
		lake, err := d3l.LoadLakeDir(*dir)
		if err != nil {
			return nil, err
		}
		opts := d3l.DefaultOptions()
		opts.Parallelism = *workers
		return d3l.New(lake, opts)
	}()
	if err != nil {
		return err
	}
	// Serving concurrency is a host property: an explicit -workers
	// overrides whatever parallelism the snapshot was built with.
	if *workers != 0 {
		if err := engine.SetParallelism(*workers); err != nil {
			return err
		}
	}
	targetLake, err := d3l.LoadLakeDir(*targetsDir)
	if err != nil {
		return err
	}
	targets := targetLake.Tables()
	if len(targets) == 0 {
		return fmt.Errorf("batch: no *.csv targets under %s", *targetsDir)
	}
	ctx, stop := queryContext()
	defer stop()
	start := time.Now()
	answers, err := engine.QueryBatch(ctx, targets, d3l.WithK(*k))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	for i, a := range answers {
		fmt.Printf("# %s\n", targets[i].Name)
		for _, r := range a.Results {
			fmt.Printf("  %-24s %.3f\n", r.Name, r.Distance)
		}
	}
	fmt.Printf("answered %d queries in %v (%.1f queries/s)\n",
		len(targets), elapsed.Round(time.Millisecond),
		float64(len(targets))/elapsed.Seconds())
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	index := fs.String("index", "", "prebuilt snapshot (alternative to -dir)")
	targetPath := fs.String("target", "", "target table CSV")
	name := fs.String("table", "", "lake table to explain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targetPath == "" || *name == "" {
		return fmt.Errorf("explain: -target and -table are required")
	}
	engine, err := loadEngine(*dir, *index)
	if err != nil {
		return err
	}
	target, err := d3l.ReadCSVFile(*targetPath)
	if err != nil {
		return err
	}
	ctx, stop := queryContext()
	defer stop()
	// Explanation-only query: k 0 skips the ranking pipeline entirely.
	ans, err := engine.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor(*name))
	if errors.Is(err, d3l.ErrTableNotFound) {
		// The typed miss gets an actionable message instead of a
		// generic failure: the query ran fine, the name is just wrong.
		return fmt.Errorf("explain: no table %q in the lake (d3l index info or d3l stats lists tables)", *name)
	}
	if err != nil {
		return err
	}
	fmt.Print(d3l.FormatExplanation(ans.Explanation))
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("stats: -dir is required")
	}
	lake, err := d3l.LoadLakeDir(*dir)
	if err != nil {
		return err
	}
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("tables:       %d\n", lake.Len())
	fmt.Printf("attributes:   %d\n", engine.NumAttributes())
	fmt.Printf("data bytes:   %d\n", lake.DataBytes())
	fmt.Printf("index bytes:  %d (%.0f%% of data)\n", engine.IndexSpaceBytes(),
		100*float64(engine.IndexSpaceBytes())/float64(lake.DataBytes()))
	fmt.Printf("join edges:   %d\n", engine.JoinGraphEdges())
	return nil
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id")
	scaleName := fs.String("scale", "small", "small or paper")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return withProfiles(*cpuprofile, *memprofile, func() error {
		return runExp(*id, *scaleName)
	})
}

func runExp(id, scaleName string) error {
	var scale experiments.Scale
	switch scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("exp: unknown scale %q", scaleName)
	}
	if id == "all" {
		return experiments.RunAll(os.Stdout, scale)
	}
	if id == "ablations" {
		env, err := experiments.NewRealEnv(scale)
		if err != nil {
			return err
		}
		reps, err := experiments.RunAblations(env)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			fmt.Println(rep.String())
		}
		return nil
	}
	rep, err := runOne(id, scale)
	if err != nil {
		return err
	}
	fmt.Println(rep.String())
	return nil
}

func runOne(id string, scale experiments.Scale) (experiments.Report, error) {
	needSynth := map[string]bool{"fig2": true, "exp2": true, "exp5": true, "exp7": true, "exp8": true, "exp9": true, "weights": true}
	needReal := map[string]bool{"fig2": true, "exp1": true, "exp3": true, "exp6": true, "exp7": true, "exp10": true, "exp11": true}
	var synth, real *experiments.Env
	var err error
	if needSynth[id] {
		if synth, err = experiments.NewSyntheticEnv(scale); err != nil {
			return experiments.Report{}, err
		}
	}
	if needReal[id] {
		if real, err = experiments.NewRealEnv(scale); err != nil {
			return experiments.Report{}, err
		}
	}
	switch id {
	case "fig2":
		return experiments.RunFig2(synth, real)
	case "tab1":
		return experiments.RunTableI()
	case "exp1":
		return experiments.RunExp1(real)
	case "exp2":
		return experiments.RunExp2(synth)
	case "exp3":
		return experiments.RunExp3(real)
	case "exp4":
		return experiments.RunExp4(scale)
	case "exp5":
		return experiments.RunExp5(synth)
	case "exp6":
		return experiments.RunExp6(real)
	case "exp7":
		return experiments.RunExp7(synth, real)
	case "exp8":
		return experiments.RunExp8(synth)
	case "exp9":
		return experiments.RunExp9(synth)
	case "exp10":
		return experiments.RunExp10(real)
	case "exp11":
		return experiments.RunExp11(real)
	case "weights":
		return experiments.TrainedWeightsReport(synth)
	default:
		return experiments.Report{}, fmt.Errorf("exp: unknown id %q", id)
	}
}
