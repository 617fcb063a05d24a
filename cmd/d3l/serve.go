package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"d3l"
	"d3l/internal/server"
	"d3l/internal/shard"
	"d3l/internal/watch"
)

// cmdServe runs the HTTP serving subsystem over a prebuilt snapshot
// (the serve-many half of the build-once/serve-many flow) or, for
// development, over a CSV directory indexed at startup. The API is
// /v1/query (the full per-query option set: k, joins, explainFor,
// weights, evidence, candidateBudget) plus the legacy per-shape
// endpoints; a request that exceeds -timeout or whose client
// disconnects has its computation cancelled and its admission slot
// freed immediately.
//
// Signals: SIGHUP hot-reloads the snapshot and atomically swaps the
// serving engine under traffic (only with -index); SIGINT/SIGTERM
// drain in-flight queries — new work answers 503 while running
// queries finish — then exit.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	index := fs.String("index", "", "prebuilt snapshot to serve (enables SIGHUP/POST /v1/reload)")
	dir := fs.String("dir", "", "lake directory of CSV files (index at startup; alternative to -index)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "engine parallelism (0 keeps GOMAXPROCS for -dir or the snapshot's setting)")
	maxConcurrent := fs.Int("max-concurrent", 0, "admission gate: concurrent queries+mutations (0 = 2x GOMAXPROCS)")
	admissionWait := fs.Duration("admission-wait", 0, "max wait for a concurrency slot before 429 (0 = 100ms)")
	timeout := fs.Duration("timeout", 0, "per-request execution deadline before 503 (0 = 30s)")
	cacheEntries := fs.Int("cache", 0, "result cache capacity in entries (0 = 1024, negative disables)")
	maxBody := fs.Int64("max-body", 0, "request body size limit in bytes before 413 (0 = 32MiB)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
	watchDir := fs.Bool("watch", false, "poll -dir for CSV changes and fold them into the serving engine (requires -dir)")
	watchInterval := fs.Duration("watch-interval", 2*time.Second, "poll interval for -watch")
	shards := fs.Int("shards", 1, "serve an in-process sharded engine set with this many shards (-dir splits the lake at startup; -index loads a shard manifest)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watchDir && *dir == "" {
		return fmt.Errorf("serve: -watch requires -dir")
	}
	if *shards < 1 {
		return fmt.Errorf("serve: -shards must be at least 1, got %d", *shards)
	}
	engine, cfg, err := buildServeEngine(*dir, *index, *workers, *shards)
	if err != nil {
		return err
	}
	cfg.MaxConcurrent = *maxConcurrent
	cfg.AdmissionWait = *admissionWait
	cfg.RequestTimeout = *timeout
	cfg.MaxBodyBytes = *maxBody
	cfg.CacheEntries = *cacheEntries
	srv, err := server.New(engine, cfg)
	if err != nil {
		return err
	}
	// Transport-level timeouts guard what the admission gate cannot
	// see: a client trickling headers or body bytes holds a
	// connection, not a gate slot, so slow-client exhaustion is
	// bounded here. WriteTimeout stays unset — it would start at
	// header-read and kill legitimately long queries; the server's
	// own RequestTimeout bounds handler time instead.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		stop, err := servePprof("serve", *pprofAddr, srv.MetricsHandler())
		if err != nil {
			return err
		}
		defer stop()
	}

	// -watch folds filesystem churn in -dir into the serving engine
	// through the same gate HTTP mutations use: admission control,
	// result-cache purge, and the mutation/update counters. The watcher
	// is cancelled before drain begins so shutdown never races a cycle.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	if *watchDir {
		w := watch.New(*dir, serverSink{srv})
		w.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "d3l serve: "+format+"\n", a...)
		}
		if err := w.Seed(); err != nil {
			return err
		}
		go func() {
			if err := w.Run(watchCtx, *watchInterval); err != nil && err != context.Canceled {
				fmt.Fprintln(os.Stderr, "d3l serve: watch:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "d3l serve: watching %s every %v\n", *dir, *watchInterval)
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				fmt.Fprintln(os.Stderr, "d3l serve: reload:", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "d3l serve: reloaded %s (engine %016x)\n",
				*index, srv.Engine().Fingerprint())
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	fmt.Fprintf(os.Stderr, "d3l serve: listening on %s (%d tables, %d attributes, engine %016x)\n",
		*addr, engine.NumTables(), engine.NumAttributes(), engine.Fingerprint())

	select {
	case err := <-serveErr:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "d3l serve: %v, draining\n", sig)
		stopWatch()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain order: flip health checks to 503 and reject new work
		// first, then stop accepting connections and finish in-flight
		// HTTP exchanges, then wait for detached query goroutines.
		srv.BeginShutdown()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		return srv.Shutdown(ctx)
	}
}

// buildServeEngine resolves the serving engine for cmdServe: the
// monolith paths (snapshot or CSV directory) at shards == 1, and the
// in-process sharded set above — -dir splits the lake across the
// consistent-hash ring at startup, -index loads the per-shard
// snapshots named by a manifest from `d3l index build -shards N`.
// The returned Config carries the matching reload wiring: SnapshotPath
// for a monolith snapshot, LoadFunc for a shard manifest.
func buildServeEngine(dir, index string, workers, shards int) (server.Engine, server.Config, error) {
	if shards == 1 {
		engine, err := loadEngine(dir, index)
		if err != nil {
			return nil, server.Config{}, err
		}
		if workers != 0 {
			if err := engine.SetParallelism(workers); err != nil {
				return nil, server.Config{}, err
			}
		}
		return engine, server.Config{SnapshotPath: index, Workers: workers}, nil
	}
	if (dir == "") == (index == "") {
		return nil, server.Config{}, fmt.Errorf("serve: exactly one of -dir and -index is required")
	}
	if dir != "" {
		lake, err := d3l.LoadLakeDir(dir)
		if err != nil {
			return nil, server.Config{}, err
		}
		opts := d3l.DefaultOptions()
		opts.Parallelism = workers
		set, err := shard.BuildSet(lake, shards, opts)
		if err != nil {
			return nil, server.Config{}, err
		}
		// A set built from CSVs has no snapshots to reload from; POST
		// /v1/reload answers an error, as monolith -dir mode does.
		return set, server.Config{}, nil
	}
	manifest := manifestPath(index)
	set, err := shard.LoadSet(manifest, workers)
	if err != nil {
		return nil, server.Config{}, err
	}
	if set.NumShards() != shards {
		return nil, server.Config{}, fmt.Errorf("serve: -shards %d but manifest %s describes %d shards", shards, manifest, set.NumShards())
	}
	cfg := server.Config{
		LoadFunc: func() (server.Engine, error) {
			return shard.LoadSet(manifest, workers)
		},
	}
	return set, cfg, nil
}

// manifestPath accepts either the manifest file itself or the snapshot
// directory holding it.
func manifestPath(index string) string {
	if st, err := os.Stat(index); err == nil && st.IsDir() {
		return filepath.Join(index, shard.ManifestName)
	}
	return index
}

// servePprof mounts the live net/http/pprof endpoints for `d3l serve`
// and `d3l coordinator` (cmd names the one in messages) and returns the
// function that closes them. Profiling endpoints never share the public
// listener: they expose process internals (heap contents, goroutine
// stacks) and must not be reachable from query traffic, so -pprof puts
// them on their own loopback-only listener. /metrics rides it too (it
// is also on the public mux): an operator can still scrape a process
// whose public listener is saturated by the very overload being
// debugged.
func servePprof(cmd, addr string, metrics http.Handler) (stop func(), err error) {
	ln, err := listenPprof(cmd, addr)
	if err != nil {
		return nil, err
	}
	pm := http.NewServeMux()
	pm.HandleFunc("/debug/pprof/", pprof.Index)
	pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
	pm.Handle("GET /metrics", metrics)
	ps := &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := ps.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "d3l %s: pprof: %v\n", cmd, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "d3l %s: pprof on http://%s/debug/pprof/\n", cmd, ln.Addr())
	return func() { ps.Close() }, nil
}

// listenPprof binds the pprof listener, refusing non-loopback hosts:
// the debug surface is for an operator on the box (or an SSH tunnel),
// never for the network the query listener faces. The host must be a
// literal loopback IP or exactly "localhost" — parsed, not
// prefix-matched, so a resolvable hostname can never smuggle the
// listener onto a routable address.
func listenPprof(cmd, addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("%s: -pprof %q: %w", cmd, addr, err)
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, fmt.Errorf("%s: -pprof must bind a loopback address, got %q", cmd, addr)
		}
	}
	return net.Listen("tcp", addr)
}
