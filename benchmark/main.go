// Command benchmark is the D3L serving benchmark: it generates a seeded
// lake and targets, builds cmd/d3l, drives the real binary over
// loopback HTTP through one of four workloads, checks every answer it
// can against an in-process oracle, and prints the end-to-end metrics —
// or, with -trace 1, the per-layer metrics of the same workload. See
// README.md in this directory.
//
//	go run -C benchmark d3l/benchmark -workload mono_cold -seed 1307 -seconds 15 -trace 0
//	go run -C benchmark d3l/benchmark -workload mono_cold -trace 1 -out /tmp/trace
//	go run -C benchmark d3l/benchmark -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: mono_cold, mono_churn or coord_cold")
	seed := fs.Uint64("seed", defaultSeed, "seed of the request stream: the window of each target table and the order of the slots")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the measured phases; scales the pass counts, never the work per pass")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
	out := fs.String("out", "", "directory that keeps child stderr, report.json and trace.json (default: discarded with the work directory)")
	selfcheck := fs.Bool("selfcheck", false, "run interleaved sets of every workload and judge the noise against the bounds of BENCHMARK.json")
	sets := fs.Int("sets", 2, "selfcheck: number of interleaved sets")
	runs := fs.Int("runs", 5, "selfcheck: runs per set and workload")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be 1..60 and -trace 0 or 1")
		return 2
	}

	// One context for the whole run: a signal cancels it, which kills
	// running tool subprocesses; the deferred close then stops the
	// servers and removes the work directory.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer cancel()

	if *selfcheck {
		if err := runSelfcheck(ctx, *sets, *runs, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	line, err := runOne(ctx, runConfig{spec: spec.scaled(*seconds), seed: *seed, trace: *trace == 1, out: *out, log: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// resultLine is the last line of standard output: the contract with
// the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once and returns its result line. Any error
// — a child that never became ready, a metric that could not be
// measured — fails the run; it never reports partial metrics.
func runOne(ctx context.Context, cfg runConfig) (string, error) {
	h, err := newHarness(cfg.out)
	if err != nil {
		return "", err
	}
	defer func() {
		h.close()
		// After a signal this goroutine may have written into the work
		// directory once more before it noticed.
		os.RemoveAll(h.work)
	}()
	// A signal must not leave children or the work directory behind
	// even while the main goroutine is blocked in a pass.
	ctx, done := context.WithCancel(ctx)
	defer done()
	go func() {
		<-ctx.Done()
		h.close()
	}()

	in, err := generate(cfg.seed, lakeDerivedTables, cfg.spec.targets)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d tables, %d targets, passes A/B/W %d/%d/%d, %d saturation clients\n",
		cfg.spec.name, cfg.seed, in.lake.Len(), len(in.sources), cfg.spec.passesA, cfg.spec.passesB, cfg.spec.passesW, clientCount())

	e2e, err := runE2E(ctx, h, cfg, in)
	if err != nil {
		return "", err
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	decls, values := endToEndMetrics, e2e.metrics
	if cfg.trace {
		layers, err := runLayers(ctx, h, cfg, in, e2e)
		if err != nil {
			return "", err
		}
		decls, values = perLayerMetrics, layers
	}

	line := resultLine{
		Correct:   len(e2e.failures) == 0,
		Attempted: e2e.attempted,
		Failed:    len(e2e.failures),
		Metrics:   map[string]metricValue{},
	}
	if line.Failed > line.Attempted {
		line.Failed = line.Attempted // several findings about one op
	}
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v.value, Unit: d.unit}
	}
	report(cfg.log, cfg, decls, values, e2e)
	if err := writeReport(filepath.Join(h.out, "report.json"), cfg, decls, values, e2e); err != nil {
		return "", err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// report prints every metric by name with its unit and sample count,
// then the diagnostics of the run and its first failures.
func report(w io.Writer, cfg runConfig, decls []metricDecl, values map[string]measured, e2e *e2eResult) {
	fmt.Fprintf(w, "\n%-34s %14s %-6s %s\n", cfg.spec.name, "value", "unit", "samples")
	for _, d := range decls {
		v := values[d.name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s %d\n", d.name, v.value, d.unit, v.n)
	}
	if cfg.trace {
		// The end-to-end half of a traced run, for the record; the
		// result line of a traced run carries the per-layer list only.
		for _, d := range endToEndMetrics {
			v := e2e.metrics[d.name]
			fmt.Fprintf(w, "%-34s %14.4f %-6s %d\n", "(e2e) "+d.name, v.value, d.unit, v.n)
		}
	}
	var names []string
	for name := range e2e.diag {
		if _, shown := values[name]; !shown {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %14.4f        %d\n", name, e2e.diag[name].value, e2e.diag[name].n)
	}
	fmt.Fprintf(w, "%d operations attempted, %d failed or wrong\n", e2e.attempted, len(e2e.failures))
	for i, f := range e2e.failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(e2e.failures)-i)
			break
		}
		fmt.Fprintln(w, "  "+f)
	}
}

// writeReport keeps the same numbers as JSON beside the child logs.
func writeReport(path string, cfg runConfig, decls []metricDecl, values map[string]measured, e2e *e2eResult) error {
	type entry struct {
		Name    string  `json:"name"`
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	rep := struct {
		Workload  string   `json:"workload"`
		Seed      uint64   `json:"seed"`
		Traced    bool     `json:"traced"`
		Attempted int      `json:"attempted"`
		Failures  []string `json:"failures"`
		Metrics   []entry  `json:"metrics"`
	}{Workload: cfg.spec.name, Seed: cfg.seed, Traced: cfg.trace, Attempted: e2e.attempted, Failures: e2e.failures}
	for _, d := range decls {
		rep.Metrics = append(rep.Metrics, entry{d.name, values[d.name].value, d.unit, values[d.name].n})
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
