package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"d3l"
	"d3l/internal/loadgen"
	"d3l/internal/server"
)

// cmdLoadgen is the serving SLO harness: it replays a seeded, weighted
// mix of query/mutation traffic against a replica — a live one over
// HTTP (-url) or the serving stack in-process (-direct, no sockets) —
// and writes a machine-readable SLO report. The run fails (non-zero
// exit) when any gate trips: a 5xx response, a required metric series
// missing from the final /metrics scrape, or a p99 above -max-p99.
// Targets are sampled from the CSV files under -dir with the same seed
// that drives the request sequence, so a committed report is
// reproducible end to end. They never come from a snapshot: its lake
// keeps names and columns but no rows, and a target with no rows
// measures a query that profiles nothing.
func cmdLoadgen(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var urls multiFlag
	fs.Var(&urls, "url", "base URL of a running replica or coordinator (repeatable: requests round-robin across all URLs; the gated /metrics scrape reads the first)")
	direct := fs.Bool("direct", false, "drive the serving stack in-process instead of over HTTP")
	index := fs.String("index", "", "-direct only: serve this prebuilt snapshot instead of indexing -dir")
	dir := fs.String("dir", "", "lake directory of CSV files the targets are sampled from (and -direct indexes, without -index)")
	duration := fs.Duration("duration", 30*time.Second, "recorded run length (after warmup)")
	warmup := fs.Duration("warmup", 2*time.Second, "warmup length (load applied, latencies discarded)")
	workers := fs.Int("workers", 4, "closed-loop workers")
	seed := fs.Uint64("seed", 42, "seed for target sampling and the request sequence")
	k := fs.Int("k", 5, "answer size per query")
	targets := fs.Int("targets", 8, "target tables sampled from the lake")
	targetRows := fs.Int("target-rows", 8, "rows per sampled target table")
	mix := fs.String("mix", "query=8,batch=1,mutate=1,update=1",
		"weighted op mix op=weight[,...]; ops: query batch mutate update reload (weight 0 drops an op)")
	out := fs.String("out", "", "write the SLO report JSON to this file (default stdout)")
	failOn5xx := fs.Bool("fail-on-5xx", true, "gate: fail the run on any status >= 500")
	maxP99 := fs.Duration("max-p99", 0, "gate: per-endpoint p99 ceiling (0 disables)")
	requireMetrics := fs.Bool("require-metrics", true,
		"gate: fail unless the final /metrics scrape exposes every expected family and stage series")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if (len(urls) == 0) == !*direct {
		return usagef("loadgen: exactly one of -url and -direct is required")
	}

	if *dir == "" {
		return usagef("loadgen: -dir is required: targets are sampled from the lake's CSV files (a snapshot keeps no rows)")
	}
	if *index != "" && !*direct {
		return usagef("loadgen: -index only applies to -direct; over -url the targets come from -dir")
	}
	lake, err := d3l.LoadLakeDir(*dir)
	if err != nil {
		return err
	}
	corpus, err := sampleTargets(lake, *seed, *targets, *targetRows)
	if err != nil {
		return err
	}
	ops, err := buildWorkload(corpus, *mix, *k)
	if err != nil {
		return err
	}

	var doer loadgen.Doer
	if *direct {
		// -direct serves the snapshot when given one (it loads in
		// milliseconds), else profiles and indexes the lake just read.
		var engine *d3l.Engine
		var cfg server.Config
		if *index != "" {
			engine, err = loadEngine("", *index, 0)
			cfg.LoadFunc = snapshotLoader(*index, 0)
		} else {
			engine, err = d3l.New(lake, d3l.DefaultOptions())
		}
		if err != nil {
			return err
		}
		srv, err := server.New(engine, cfg)
		if err != nil {
			return err
		}
		doer = &loadgen.HandlerDoer{Handler: srv}
	} else if len(urls) == 1 {
		doer = loadgen.NewHTTPDoer(urls[0], *workers)
	} else {
		rr := &loadgen.RoundRobinDoer{}
		for _, u := range urls {
			rr.Doers = append(rr.Doers, loadgen.NewHTTPDoer(u, *workers))
		}
		doer = rr
	}

	cfg := loadgen.Config{
		Workers:     *workers,
		Warmup:      *warmup,
		Duration:    *duration,
		Seed:        *seed,
		Ops:         ops,
		FailOn5xx:   *failOn5xx,
		MaxP99:      *maxP99,
		MetricsPath: "/metrics",
	}
	if *requireMetrics {
		cfg.RequireMetrics = server.MetricNames()
		for _, stage := range server.StageLabelValues() {
			cfg.RequireSeries = append(cfg.RequireSeries, fmt.Sprintf("stage=%q", stage))
		}
	}

	fmt.Fprintf(stderr, "d3l loadgen: %d workers, %v warmup + %v run, seed %d, %d targets, mix %s\n",
		cfg.Workers, cfg.Warmup, cfg.Duration, cfg.Seed, len(corpus), *mix)
	rep, err := loadgen.Run(cfg, doer)
	if err != nil {
		return err
	}

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
	} else {
		stdout.Write(body)
	}
	printSummary(stderr, rep)
	if len(rep.Violations) > 0 {
		return fmt.Errorf("loadgen: %d SLO violation(s):\n  %s",
			len(rep.Violations), strings.Join(rep.Violations, "\n  "))
	}
	return nil
}

// sampleTargets picks up to n tables by seeded partial Fisher–Yates
// over the name-sorted lake and trims each to rows rows — realistic
// targets (they exist in the lake, so answers are non-empty) with
// bounded request bodies. A lake whose sampled tables have no rows at
// all (a snapshot's metadata-only lake, a directory of header-only
// CSVs) is an error: every request would profile an empty target.
func sampleTargets(lake *d3l.Lake, seed uint64, n, rows int) ([]server.TableJSON, error) {
	tables := slices.Clone(lake.Tables()) // the lake's own slice is indexed by table id
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	// splitmix64, restated locally: the sequence half lives in the
	// loadgen package, and sampling must be just as Go-version-stable.
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	if n > len(tables) {
		n = len(tables)
	}
	for i := 0; i < n; i++ {
		j := i + int(next()%uint64(len(tables)-i))
		tables[i], tables[j] = tables[j], tables[i]
	}
	out := make([]server.TableJSON, 0, n)
	sampledRows := 0
	for _, t := range tables[:n] {
		tj := server.TableJSON{Name: "target_" + t.Name}
		for _, c := range t.Columns {
			tj.Columns = append(tj.Columns, c.Name)
		}
		total := t.Rows()
		if total > rows {
			total = rows
		}
		for r := 0; r < total; r++ {
			row := make([]string, len(t.Columns))
			for c, col := range t.Columns {
				row[c] = col.Values[r]
			}
			tj.Rows = append(tj.Rows, row)
		}
		sampledRows += total
		out = append(out, tj)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: lake has no tables to sample targets from")
	}
	if sampledRows == 0 {
		return nil, fmt.Errorf("loadgen: all %d sampled targets have zero rows; point -dir at the lake's CSV files (a snapshot's lake is metadata-only)", len(out))
	}
	return out, nil
}

// buildWorkload assembles the OpSpec list for the parsed mix.
func buildWorkload(corpus []server.TableJSON, mix string, k int) ([]loadgen.OpSpec, error) {
	weights, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // wire structs; unreachable short of a programming error
		}
		return b
	}
	var query, batch [][]loadgen.Request
	for i := range corpus {
		query = append(query, []loadgen.Request{{Method: "POST", Path: "/v1/query",
			Body: marshal(server.QueryRequest{Table: corpus[i], K: &k})}})
	}
	for i := 0; i < len(corpus); i += 3 {
		end := i + 3
		if end > len(corpus) {
			end = len(corpus)
		}
		batch = append(batch, []loadgen.Request{{Method: "POST", Path: "/v1/batch",
			Body: marshal(server.BatchRequest{Tables: corpus[i:end], K: &k})}})
	}

	var ops []loadgen.OpSpec
	add := func(name string, variants [][]loadgen.Request) {
		if w := weights[name]; w > 0 {
			ops = append(ops, loadgen.OpSpec{Name: name, Weight: w, Variants: variants})
		}
		delete(weights, name)
	}
	add("query", query)
	add("batch", batch)
	if w := weights["mutate"]; w > 0 {
		churnRows := corpus[0].Rows
		ops = append(ops, loadgen.OpSpec{
			Name:   "mutate",
			Weight: w,
			// Per-worker churn table: workers never contend on a name.
			// 404/409 are accepted — when backpressure splits an
			// add/delete pair, the next pair meets leftover state; that
			// is driver artifact, not server fault.
			Accept: []int{404, 409},
			VariantsFor: func(worker int) [][]loadgen.Request {
				name := fmt.Sprintf("loadgen_churn_w%d", worker)
				t := server.TableJSON{Name: name, Columns: corpus[0].Columns, Rows: churnRows}
				return [][]loadgen.Request{{
					{Method: "POST", Path: "/v1/tables", Body: marshal(server.AddTableRequest{Table: t})},
					{Method: "DELETE", Path: "/v1/tables/" + name},
				}}
			},
		})
	}
	delete(weights, "mutate")
	if w := weights["update"]; w > 0 {
		churnRows := corpus[0].Rows
		ops = append(ops, loadgen.OpSpec{
			Name:   "update",
			Weight: w,
			// Add → in-place update → delete, per-worker name. The PUT
			// body rewrites exactly one column, so every accepted update
			// exercises the delta re-profiling path (1 column of C) and
			// advances d3l_update_delta_cols_total by one. 404/409 are
			// accepted for split sequences, as with mutate.
			Accept: []int{404, 409},
			VariantsFor: func(worker int) [][]loadgen.Request {
				name := fmt.Sprintf("loadgen_update_w%d", worker)
				base := server.TableJSON{Name: name, Columns: corpus[0].Columns, Rows: churnRows}
				changed := server.TableJSON{Name: name, Columns: corpus[0].Columns}
				for _, row := range churnRows {
					row2 := append([]string(nil), row...)
					row2[0] += "_v2"
					changed.Rows = append(changed.Rows, row2)
				}
				return [][]loadgen.Request{{
					{Method: "POST", Path: "/v1/tables", Body: marshal(server.AddTableRequest{Table: base})},
					{Method: "PUT", Path: "/v1/tables/" + name, Body: marshal(server.UpdateTableRequest{Table: changed})},
					{Method: "DELETE", Path: "/v1/tables/" + name},
				}}
			},
		})
	}
	delete(weights, "update")
	if w := weights["reload"]; w > 0 {
		ops = append(ops, loadgen.OpSpec{Name: "reload", Weight: w,
			Variants: [][]loadgen.Request{{{Method: "POST", Path: "/v1/reload"}}}})
	}
	delete(weights, "reload")
	for name := range weights {
		return nil, fmt.Errorf("loadgen: unknown op %q in -mix (want query, batch, mutate, update, reload)", name)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("loadgen: -mix selects no operations")
	}
	return ops, nil
}

func parseMix(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: -mix entry %q is not op=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: -mix weight for %q must be a non-negative integer", name)
		}
		out[name] = w
	}
	return out, nil
}

func printSummary(w io.Writer, rep *loadgen.Report) {
	fmt.Fprintf(w, "d3l loadgen: %d ops in %.1fs (%.1f ops/s)\n",
		rep.TotalOps, rep.DurationSeconds, rep.OpsPerSec)
	names := make([]string, 0, len(rep.Endpoints))
	for name := range rep.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		es := rep.Endpoints[name]
		fmt.Fprintf(w, "  %-8s n=%-7d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms err=%d 429=%d 5xx=%d\n",
			name, es.Count, es.P50Ms, es.P95Ms, es.P99Ms, es.MaxMs, es.Errors, es.Status429, es.Status5xx)
	}
}
