// Command d3l is the CLI for the D3L dataset-discovery library: it
// generates evaluation lakes, indexes CSV directories (once, into a
// reusable binary snapshot), answers top-k discovery queries (with or
// without join augmentation and the Table I evidence breakdown), serves
// them over HTTP, and re-runs every experiment of the paper's
// evaluation. `d3l help` lists the commands and `d3l COMMAND -h` a
// command's flags.
//
// The build-once/serve-many flow: `d3l index build` profiles and
// indexes a CSV directory and snapshots the engine to disk; `d3l query
// -index` (and batch) then cold-start from the snapshot in milliseconds
// instead of re-profiling the lake, returning the same results as the
// direct -dir path; `d3l serve -index` turns the same snapshot into a
// long-running HTTP JSON service with result caching, admission
// control, hot reload (SIGHUP) and graceful shutdown.
//
// SIGINT and SIGTERM cancel the running command: a query stops through
// the engine's cooperative cancellation, a server drains. The exit
// status is 0 on success and for -h, 2 for a command line that names no
// valid run, and 1 for any other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

// A command runs one subcommand on its arguments: it writes its result
// to stdout, its log and flag errors to stderr, and stops when ctx is
// done.
type command func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// commands is the one table of subcommands: run dispatches on it and
// usage prints it. Each synopsis line after the first continues the
// one before.
var commands = []struct {
	name, synopsis string
	run            command
}{
	{"generate", "-kind synthetic|real|larger -out DIR [-tables N] [-seed N]", interruptible(cmdGenerate)},
	{"index", "build -dir DIR -out FILE.d3l [-workers N]   (-shards N -out DIR writes a sharded snapshot set)\n" +
		"info -index FILE.d3l", interruptible(cmdIndex)},
	{"query", "-dir DIR | -index FILE.d3l  -target FILE.csv [-k K] [-joins] [-explain NAME]\n" +
		"[-evidence name,value,...] [-budget N] [-explain-plan]   (-k 0 -explain NAME: the breakdown alone)", cmdQuery},
	{"batch", "-dir DIR | -index FILE.d3l  -targets DIR [-k K] [-workers N]", cmdBatch},
	{"serve", "-index FILE.d3l | -dir DIR  [-addr :8080] [-workers N] [-shards N] [-watch] [server flags]", cmdServe},
	{"coordinator", "-shard URL[,URL...] [-shard ...]  [-addr :8080] [retry, hedge and breaker flags] [server flags]", cmdCoordinator},
	{"faultproxy", "-target URL [-listen :8191] [-seed N] [-latency D -latency-prob F] [-error-prob F] [...]", cmdFaultproxy},
	{"loadgen", "-url URL [-url URL ...] | -direct [-index FILE.d3l]  -dir DIR  [-duration D] [-seed N]\n" +
		"[-mix query=8,batch=1,mutate=1,update=1] [-out FILE.json] [-max-p99 D]", interruptible(cmdLoadgen)},
	{"exp", "-id all|fig2|tab1|exp1..exp11|weights|ablations [-scale small|paper]", interruptible(cmdExp)},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// After the first signal, a second one ends the process outright.
	context.AfterFunc(ctx, stop)
	code := exitCode(run(ctx, os.Args[1:], os.Stdout, os.Stderr), os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches one command line.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return usagef("no command")
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stderr)
		return flag.ErrHelp
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(ctx, args[1:], stdout, stderr)
		}
	}
	usage(stderr)
	return usagef("unknown command %q", args[0])
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage:")
	for _, c := range commands {
		head := "d3l " + c.name
		for _, line := range strings.Split(c.synopsis, "\n") {
			fmt.Fprintf(w, "  %-15s %s\n", head, line)
			head = ""
		}
	}
	fmt.Fprintln(w, "d3l COMMAND -h lists a command's flags; query and exp also take -cpuprofile FILE and -memprofile FILE")
}

// usageError is a command line that names no valid run.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// exitCode is the one mapping from a command's error to the process
// exit status, reporting the error on stderr.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	// The library's errors carry its package name, which is also this
	// command's.
	fmt.Fprintln(stderr, "d3l:", strings.TrimPrefix(err.Error(), "d3l: "))
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// parse parses a command's flags, reporting flag errors and -h on
// stderr; a malformed flag is a usage error.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError{err}
}

// interruptible wraps a command whose work cannot observe ctx so that a
// signal still ends it at once: the command returns ctx's error and the
// process exits with the work unfinished.
func interruptible(cmd command) command {
	return func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		done := make(chan error, 1)
		go func() { done <- cmd(ctx, args, stdout, stderr) }()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func cmdGenerate(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	kind := fs.String("kind", "synthetic", "lake kind: synthetic, real, larger")
	out := fs.String("out", "", "output directory")
	tables := fs.Int("tables", 0, "table count (0 = default)")
	seed := fs.Uint64("seed", 42, "generation seed")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return usagef("generate: -out is required")
	}
	if *tables < 0 {
		return usagef("generate: -tables must be non-negative, got %d", *tables)
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
		return usagef("generate: unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if err := d3l.SaveLakeDir(lake, *out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d tables to %s\n", lake.Len(), *out)
	return nil
}

// checkSource refuses a command line that names both or neither of the
// two engine sources.
func checkSource(dir, index string) error {
	if (dir == "") == (index == "") {
		return usagef("exactly one of -dir and -index is required")
	}
	return nil
}

// loadEngine opens the engine of query, batch and a monolith serve: a
// prebuilt snapshot (instant cold-start) or a CSV directory (profiled
// and indexed now), exactly one of the two. workers is the engine's
// parallelism (0 = GOMAXPROCS), which for -dir also drives the build;
// answers are the same at any setting.
func loadEngine(dir, index string, workers int) (*d3l.Engine, error) {
	if err := checkSource(dir, index); err != nil {
		return nil, err
	}
	if index == "" {
		lake, err := d3l.LoadLakeDir(dir)
		if err != nil {
			return nil, err
		}
		opts := d3l.DefaultOptions()
		opts.Parallelism = workers
		return d3l.New(lake, opts)
	}
	engine, err := d3l.LoadFile(index)
	if err != nil {
		return nil, err
	}
	if err := engine.SetParallelism(workers); err != nil {
		return nil, err
	}
	return engine, nil
}

// cmdIndex implements the build-once half of the serving flow: build
// snapshots an indexed lake to disk, info inspects a snapshot.
func cmdIndex(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return usagef("index: expected a subcommand: build or info")
	}
	switch args[0] {
	case "build":
		return cmdIndexBuild(args[1:], stdout, stderr)
	case "info":
		fs := flag.NewFlagSet("index info", flag.ContinueOnError)
		index := fs.String("index", "", "snapshot file")
		if err := parse(fs, args[1:], stderr); err != nil {
			return err
		}
		if *index == "" {
			return usagef("index info: -index is required")
		}
		return indexInfo(stdout, *index)
	default:
		return usagef("index: unknown subcommand %q (want build or info)", args[0])
	}
}

func cmdIndexBuild(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("index build", flag.ContinueOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	out := fs.String("out", "", "output snapshot file (a directory with -shards > 1)")
	workers := fs.Int("workers", 0, "profiling parallelism (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "split the lake across this many shards: write one snapshot per shard plus a manifest into -out")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *dir == "" || *out == "" {
		return usagef("index build: -dir and -out are required")
	}
	if *shards < 1 {
		return usagef("index build: -shards must be at least 1, got %d", *shards)
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
		return buildShardedIndex(stdout, lake, opts, *shards, *out, loaded)
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
	start = time.Now()
	if err := d3l.SaveFile(engine, *out); err != nil {
		return err
	}
	saved := time.Since(start)
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "indexed %d tables (%d attributes) in %v\n",
		lake.Len(), engine.NumAttributes(), built.Round(time.Millisecond))
	fmt.Fprintf(stdout, "wrote %s (%d bytes, %d join edges)\n", *out, st.Size(), edges)
	bt := engine.BuildTimings()
	fmt.Fprintf(stdout, "phases: load %v, profile %v, index %v, graph %v, save %v\n",
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
func buildShardedIndex(stdout io.Writer, lake *d3l.Lake, opts d3l.Options, shards int, out string, loaded time.Duration) error {
	start := time.Now()
	set, err := shard.BuildSet(lake, shards, opts)
	if err != nil {
		return err
	}
	built := time.Since(start)
	// Unlike the monolith path, no shard snapshot carries an SA-join
	// graph: join paths cross shards, and no sharded topology serves them.
	start = time.Now()
	if err := shard.WriteSet(set, out); err != nil {
		return err
	}
	saved := time.Since(start)
	perShard := make([]int, set.NumShards())
	for _, name := range set.Tables() {
		perShard[set.Placement().Owner(name)]++
	}
	fmt.Fprintf(stdout, "indexed %d tables (%d attributes) across %d shards in %v\n",
		lake.Len(), set.NumAttributes(), shards, built.Round(time.Millisecond))
	fmt.Fprintf(stdout, "wrote %s (tables per shard: %v)\n", out, perShard)
	fmt.Fprintf(stdout, "phases: load %v, profile and index %v, save %v\n",
		loaded.Round(time.Millisecond), built.Round(time.Millisecond), saved.Round(time.Millisecond))
	return nil
}

// indexInfo reports a snapshot's format, contents, how many distinct
// MinHash signatures its attributes hold and its signature table stores,
// how many entries and distinct keys each forest's first tree holds,
// footprint (the index bytes are the numerator of the paper's Table II),
// the SA-join graph the file holds (it never builds one the file lacks),
// load time with the share of it the forests took to rebuild, how the
// numeric extents are coded, and section sizes. A snapshot of a format
// this build does not read is refused by its version.
func indexInfo(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	// This decoder reads only the version, the section headers and the
	// signature table's count; the engine comes from d3l.LoadFile, so the
	// printed load time is exactly what a serving replica pays.
	dec, err := persist.NewDecoder(f, st.Size())
	if err != nil {
		return err
	}
	start := time.Now()
	engine, err := d3l.LoadFile(path)
	if err != nil {
		return err
	}
	loaded := time.Since(start)
	sizes := dec.SectionSizes()
	fmt.Fprintf(w, "snapshot:      %s (%d bytes, format v%d)\n", path, st.Size(), dec.Version())
	fmt.Fprintf(w, "tables:        %d\n", engine.Lake().Len())
	names, values, formats := engine.DistinctSignatures()
	fmt.Fprintf(w, "attributes:    %d (distinct signatures N %d / V %d / F %d)\n", engine.NumAttributes(), names, values, formats)
	if r, ok := dec.Section(persist.SecSigs); ok {
		fmt.Fprintf(w, "signatures:    %d table entries\n", r.Uvarint())
	}
	entries, keys := engine.ForestShapes()
	fmt.Fprintf(w, "forests:       N %d/%d  V %d/%d  F %d/%d  E %d/%d (entries/keys)\n",
		entries[0], keys[0], entries[1], keys[1], entries[2], keys[2], entries[3], keys[3])
	fmt.Fprintf(w, "index bytes:   %d\n", engine.IndexSpaceBytes())
	if edges, ok := engine.HeldJoinGraphEdges(); ok {
		fmt.Fprintf(w, "join graph:    %d edges (%d neighbour ids)\n", edges, 2*edges)
	} else {
		fmt.Fprintf(w, "join graph:    none in file\n")
	}
	fmt.Fprintf(w, "load time:     %v (forests rebuilt in %v)\n",
		loaded.Round(time.Microsecond), engine.BuildTimings().Index.Round(time.Microsecond))
	byScale, raw := engine.ExtentCoding()
	total, coding := raw, []string{}
	for d, n := range byScale {
		if n > 0 {
			total += n
			coding = append(coding, fmt.Sprintf("%d scaled d=%d", n, d))
		}
	}
	fmt.Fprintf(w, "extents:       %d (%s)\n", total, strings.Join(append(coding, fmt.Sprintf("%d raw", raw)), ", "))
	for _, s := range []struct {
		id   uint32
		name string
	}{
		{persist.SecOptions, "options"},
		{persist.SecLake, "lake meta"},
		{persist.SecSigs, "signatures"},
		{persist.SecAttrs, "profiles"},
		{persist.SecJoinGraph, "join graph"},
	} {
		if n, ok := sizes[s.id]; ok {
			fmt.Fprintf(w, "  section %-12s %d bytes\n", s.name, n)
		}
	}
	return nil
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

// cmdQuery answers one target. With -explain NAME it also prints the
// Table I-style breakdown against NAME; -k 0 skips the ranking and
// prints the breakdown alone.
func cmdQuery(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	index := fs.String("index", "", "prebuilt snapshot (alternative to -dir)")
	targetPath := fs.String("target", "", "target table CSV")
	k := fs.Int("k", 10, "answer size (0 with -explain: the breakdown alone)")
	withJoins := fs.Bool("joins", false, "augment with SA-join paths (D3L+J)")
	budget := fs.Int("budget", 0, "candidate budget per target attribute per index (0 = derived from k)")
	evidence := fs.String("evidence", "", "comma-separated evidence subset: name,value,format,embedding,domain (empty = all)")
	explainFor := fs.String("explain", "", "also print the Table I-style breakdown against this lake table")
	explainPlan := fs.Bool("explain-plan", false, "print the query plan the engine executed (evidence cascade, pruning counters)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *targetPath == "" {
		return usagef("query: -target is required")
	}
	// The budget always goes through: 0 derives it from k, and a
	// negative one fails with ErrInvalidOptions as /v1/query refuses it.
	opts := []d3l.QueryOption{d3l.WithK(*k), d3l.WithCandidateBudget(*budget)}
	if *withJoins {
		opts = append(opts, d3l.WithJoins())
	}
	if *explainFor != "" {
		opts = append(opts, d3l.WithExplainFor(*explainFor))
	}
	evOpts, err := parseEvidenceList(*evidence)
	if err != nil {
		return err
	}
	opts = append(opts, evOpts...)
	return withProfiles(*cpuprofile, *memprofile, func() error {
		engine, err := loadEngine(*dir, *index, 0)
		if err != nil {
			return err
		}
		target, err := d3l.ReadCSVFile(*targetPath)
		if err != nil {
			return err
		}
		ans, err := engine.Query(ctx, target, opts...)
		if errors.Is(err, d3l.ErrTableNotFound) {
			return explainNotFound(engine, *explainFor)
		}
		if err != nil {
			return err
		}
		if *withJoins {
			fmt.Fprintf(stdout, "%-24s %-9s %-9s %-9s %s\n", "table", "distance", "coverage", "cov+J", "paths")
			for _, a := range ans.Joins {
				fmt.Fprintf(stdout, "%-24s %-9.3f %-9.2f %-9.2f %d\n",
					a.Result.Name, a.Result.Distance, a.BaseCoverage, a.JoinCoverage, len(a.Paths))
			}
		} else {
			fmt.Fprintf(stdout, "%-24s %-9s %s\n", "table", "distance", "aligned target columns")
			for _, r := range ans.Results {
				fmt.Fprintf(stdout, "%-24s %-9.3f %d/%d\n", r.Name, r.Distance, len(r.Alignments), target.Arity())
			}
		}
		if *explainFor != "" {
			fmt.Fprintf(stdout, "\nTable I breakdown vs %s:\n%s", *explainFor, d3l.FormatExplanation(ans.Explanation))
		}
		// An explanation-only query (-k 0) ranks nothing and has no plan.
		if *explainPlan && ans.Plan.Enabled {
			fmt.Fprintf(stdout, "plan: cascade %s — pruned %d tables (%d pairs), elided %d evidence evals\n",
				ans.Plan.Order, ans.Plan.TablesPruned, ans.Plan.PairsPruned, ans.Plan.EvidenceEvalsElided)
		}
		fmt.Fprintf(stdout, "scored %d tables from %d candidate pairs in %v\n",
			ans.Stats.TablesScored, ans.Stats.CandidatePairs, ans.Stats.Elapsed.Round(time.Microsecond))
		return nil
	})
}

// explainNotFound is the actionable form of a -explain miss: the query
// ran, the name is just wrong, so say which names the lake does have.
func explainNotFound(engine *d3l.Engine, name string) error {
	lake := engine.Lake()
	var names []string
	for _, t := range lake.Tables()[:min(3, lake.Len())] {
		names = append(names, t.Name)
	}
	if lake.Len() > 3 {
		names = append(names, "...")
	}
	return fmt.Errorf("query: -explain %q: no such table in the lake (%d tables: %s)",
		name, lake.Len(), strings.Join(names, ", "))
}

// cmdBatch is the serving-shaped workload: index one lake, then answer
// a whole directory of target tables concurrently through QueryBatch.
func cmdBatch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	dir := fs.String("dir", "", "lake directory of CSV files")
	index := fs.String("index", "", "prebuilt snapshot (alternative to -dir)")
	targetsDir := fs.String("targets", "", "directory of target table CSVs")
	k := fs.Int("k", 10, "answer size per target")
	workers := fs.Int("workers", 0, "concurrent queries (0 = GOMAXPROCS)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *targetsDir == "" {
		return usagef("batch: -targets is required")
	}
	engine, err := loadEngine(*dir, *index, *workers)
	if err != nil {
		return err
	}
	targetLake, err := d3l.LoadLakeDir(*targetsDir)
	if err != nil {
		return err
	}
	targets := targetLake.Tables()
	if len(targets) == 0 {
		return fmt.Errorf("batch: no *.csv targets under %s", *targetsDir)
	}
	start := time.Now()
	answers, err := engine.QueryBatch(ctx, targets, d3l.WithK(*k))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	for i, a := range answers {
		fmt.Fprintf(stdout, "# %s\n", targets[i].Name)
		for _, r := range a.Results {
			fmt.Fprintf(stdout, "  %-24s %.3f\n", r.Name, r.Distance)
		}
	}
	fmt.Fprintf(stdout, "answered %d queries in %v (%.1f queries/s)\n",
		len(targets), elapsed.Round(time.Millisecond),
		float64(len(targets))/elapsed.Seconds())
	return nil
}

func cmdExp(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	id := fs.String("id", "all", "experiment id")
	scaleName := fs.String("scale", "small", "small or paper")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	return withProfiles(*cpuprofile, *memprofile, func() error {
		return runExp(stdout, *id, *scaleName)
	})
}

func runExp(w io.Writer, id, scaleName string) error {
	var scale experiments.Scale
	switch scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return usagef("exp: unknown scale %q", scaleName)
	}
	if id == "all" {
		return experiments.RunAll(w, scale)
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
			fmt.Fprintln(w, rep.String())
		}
		return nil
	}
	rep, err := runOne(id, scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rep.String())
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
		return experiments.Report{}, usagef("exp: unknown id %q", id)
	}
}
