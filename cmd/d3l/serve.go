package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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

// front is the serving front that `d3l serve` and `d3l coordinator`
// share: the server.Config flag block, the listen and pprof addresses,
// and the drain deadline.
type front struct {
	cfg          server.Config
	addr, pprof  string
	drainTimeout time.Duration
}

func newFront(fs *flag.FlagSet) *front {
	f := &front{}
	fs.StringVar(&f.addr, "addr", ":8080", "listen address")
	fs.IntVar(&f.cfg.MaxConcurrent, "max-concurrent", 0, "admission gate: concurrent queries+mutations (0 = 2x GOMAXPROCS)")
	fs.DurationVar(&f.cfg.AdmissionWait, "admission-wait", 0, "max wait for a concurrency slot before 429 (0 = 100ms)")
	fs.DurationVar(&f.cfg.RequestTimeout, "timeout", 0, "per-request execution deadline before 503 (0 = 30s)")
	fs.IntVar(&f.cfg.CacheEntries, "cache", 0, "result cache capacity in entries (0 = 1024, negative disables)")
	fs.Int64Var(&f.cfg.MaxBodyBytes, "max-body", 0, "request body size limit in bytes before 413 (0 = 32MiB)")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	fs.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
	return f
}

// serve runs srv on the front's address until ctx is done, then drains
// it. name is the command in log lines, and about follows the address
// in the line that announces it. SIGHUP reloads srv's engine.
func (f *front) serve(ctx context.Context, name string, srv *server.Server, stderr io.Writer, about string) error {
	if f.pprof != "" {
		stop, err := servePprof(name, f.pprof, srv.MetricsHandler(), stderr)
		if err != nil {
			return err
		}
		defer stop()
	}
	ln, err := net.Listen("tcp", f.addr)
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
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "d3l %s: listening on %s%s\n", name, ln.Addr(), about)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	for {
		select {
		case err := <-serveErr:
			return err
		case <-hup:
			if err := srv.Reload(); err != nil {
				fmt.Fprintf(stderr, "d3l %s: reload: %v\n", name, err)
				continue
			}
			fmt.Fprintf(stderr, "d3l %s: reloaded (engine %016x)\n", name, srv.Engine().Fingerprint())
		case <-ctx.Done():
			fmt.Fprintf(stderr, "d3l %s: signalled, draining\n", name)
			dctx, cancel := context.WithTimeout(context.Background(), f.drainTimeout)
			defer cancel()
			// Drain order: flip health checks to 503 and reject new work
			// first, then stop accepting connections and finish in-flight
			// HTTP exchanges, then wait for detached query goroutines.
			srv.BeginShutdown()
			if err := hs.Shutdown(dctx); err != nil {
				return err
			}
			return srv.Shutdown(dctx)
		}
	}
}

// cmdServe runs the HTTP serving subsystem over a prebuilt snapshot
// (the serve-many half of the build-once/serve-many flow) or, for
// development, over a CSV directory indexed at startup. Two routes
// rank: /v1/query (one target, with the full per-query option set: k,
// joins, explainFor, weights, evidence, candidateBudget) and /v1/batch
// (many targets at one k); a request that exceeds -timeout or whose
// client disconnects has its computation cancelled and its admission
// slot freed immediately.
//
// SIGHUP hot-reloads the snapshot and atomically swaps the serving
// engine under traffic (only with -index); cancelling ctx drains
// in-flight queries — new work answers 503 while running queries
// finish — then returns.
func cmdServe(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	index := fs.String("index", "", "prebuilt snapshot to serve (enables SIGHUP/POST /v1/reload)")
	dir := fs.String("dir", "", "lake directory of CSV files (index at startup; alternative to -index)")
	workers := fs.Int("workers", 0, "engine parallelism (0 = GOMAXPROCS)")
	watchDir := fs.Bool("watch", false, "poll -dir for CSV changes and fold them into the serving engine (requires -dir)")
	watchInterval := fs.Duration("watch-interval", 2*time.Second, "poll interval for -watch")
	shards := fs.Int("shards", 1, "serve an in-process sharded engine set with this many shards (-dir splits the lake at startup; -index loads a shard manifest)")
	f := newFront(fs)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *watchDir && *dir == "" {
		return usagef("serve: -watch requires -dir")
	}
	if *shards < 1 {
		return usagef("serve: -shards must be at least 1, got %d", *shards)
	}
	engine, err := buildServeEngine(*dir, *index, *workers, *shards, &f.cfg)
	if err != nil {
		return err
	}
	srv, err := server.New(engine, f.cfg)
	if err != nil {
		return err
	}
	// -watch folds filesystem churn in -dir into the serving engine
	// through the same gate HTTP mutations use: admission control,
	// result-cache purge, and the mutation/update counters. The watcher
	// stops when the server begins to drain, or when serving fails.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if *watchDir {
		w := watch.New(*dir, serverSink{srv})
		w.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, "d3l serve: "+format+"\n", a...)
		}
		if err := w.Seed(); err != nil {
			return err
		}
		go w.Run(ctx, *watchInterval) // returns ctx's error, once ctx is done
		fmt.Fprintf(stderr, "d3l serve: watching %s every %v\n", *dir, *watchInterval)
	}
	return f.serve(ctx, "serve", srv, stderr, fmt.Sprintf(" (%d tables, %d attributes, engine %016x)",
		engine.NumTables(), engine.NumAttributes(), engine.Fingerprint()))
}

// serverSink routes watcher deltas through the serving stack instead
// of straight at the engine: every mutation passes the server's
// admission gate (so a draining server refuses filesystem churn the
// same way it refuses HTTP mutations), purges the result cache, and
// feeds the mutation/update counters the SLO gate scrapes.
type serverSink struct{ srv *server.Server }

func (s serverSink) Has(name string) bool { return s.srv.Engine().HasTable(name) }

func (s serverSink) Add(t *d3l.Table) error {
	return s.srv.MutateEngine(func(e server.Engine) error {
		_, err := e.Add(t)
		return err
	})
}

func (s serverSink) Update(t *d3l.Table) (int, error) {
	var reprofiled int
	err := s.srv.MutateEngine(func(e server.Engine) error {
		st, err := e.Update(t)
		reprofiled = st.Reprofiled
		return err
	})
	if err != nil {
		return 0, err
	}
	s.srv.CountUpdate(reprofiled)
	return reprofiled, nil
}

func (s serverSink) Remove(name string) error {
	return s.srv.MutateEngine(func(e server.Engine) error {
		return e.Remove(name)
	})
}

// buildServeEngine resolves the serving engine for cmdServe: the
// monolith paths (snapshot or CSV directory) at shards == 1, and the
// in-process sharded set above — -dir splits the lake across the
// consistent-hash ring at startup, -index loads the per-shard
// snapshots named by a manifest from `d3l index build -shards N`. With
// -index it sets cfg's reload loader: the snapshot for a monolith, the
// manifest for a set.
func buildServeEngine(dir, index string, workers, shards int, cfg *server.Config) (server.Engine, error) {
	if shards == 1 {
		engine, err := loadEngine(dir, index, workers)
		if err != nil {
			return nil, err
		}
		if index != "" {
			cfg.LoadFunc = snapshotLoader(index, workers)
		}
		return engine, nil
	}
	if err := checkSource(dir, index); err != nil {
		return nil, err
	}
	if dir != "" {
		lake, err := d3l.LoadLakeDir(dir)
		if err != nil {
			return nil, err
		}
		opts := d3l.DefaultOptions()
		opts.Parallelism = workers
		// A set built from CSVs has no snapshots to reload from; POST
		// /v1/reload answers an error, as monolith -dir mode does.
		set, err := shard.BuildSet(lake, shards, opts)
		if err != nil {
			return nil, err
		}
		return set, nil
	}
	manifest := manifestPath(index)
	set, err := shard.LoadSet(manifest, workers)
	if err != nil {
		return nil, err
	}
	if set.NumShards() != shards {
		return nil, usagef("serve: -shards %d but manifest %s describes %d shards", shards, manifest, set.NumShards())
	}
	cfg.LoadFunc = func() (server.Engine, error) {
		return shard.LoadSet(manifest, workers)
	}
	return set, nil
}

// snapshotLoader is the reload loader of a monolith serving the
// snapshot at index: each call re-reads it and sets workers, as
// loadEngine did at startup (a snapshot carries no parallelism).
func snapshotLoader(index string, workers int) func() (server.Engine, error) {
	return func() (server.Engine, error) {
		engine, err := loadEngine("", index, workers)
		if err != nil {
			// A nil interface: a typed nil *d3l.Engine would not be.
			return nil, err
		}
		return engine, nil
	}
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
func servePprof(cmd, addr string, metrics http.Handler, stderr io.Writer) (stop func(), err error) {
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
			fmt.Fprintf(stderr, "d3l %s: pprof: %v\n", cmd, err)
		}
	}()
	fmt.Fprintf(stderr, "d3l %s: pprof on http://%s/debug/pprof/\n", cmd, ln.Addr())
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
		return nil, usagef("%s: -pprof %q: %w", cmd, addr, err)
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, usagef("%s: -pprof must bind a loopback address, got %q", cmd, addr)
		}
	}
	return net.Listen("tcp", addr)
}
