package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"d3l/internal/server"
	"d3l/internal/shard"
)

// multiFlag collects a repeatable string flag in order of appearance
// (`-shard URL -shard URL`, `-url URL -url URL`).
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// cmdCoordinator runs the thin scatter-gather coordinator: a stateless
// HTTP front that fans every query out to remote shard replicas (plain
// `d3l serve` processes over per-shard snapshots from `d3l index build
// -shards N`) and merges their partial answers byte-identically to a
// monolith over the union lake. It reuses the full serving stack —
// result cache, admission gate, single-flight — so repeated queries
// cost one fan-out.
//
// The -shard flags are positional: the i-th flag is shard ordinal i
// and must serve the i-th snapshot of the manifest the set was built
// from, or placement-routed mutations and explanations will miss. Each
// -shard value may list several comma-separated replica URLs for that
// ordinal ("http://a:8081,http://b:8081"): the coordinator tracks each
// replica's health behind a circuit breaker, routes to the healthiest,
// fails over on transient errors, and hedges slow calls across
// replicas. Startup requires at least one reachable replica per shard
// (agreeing on the snapshot fingerprint); a replica that is down at
// startup begins with its breaker open and is re-admitted by the
// active prober once it answers health checks again. GET /v1/readyz
// reports 503 with the degraded shard groups while any shard has no
// closed-breaker replica. POST /v1/reload re-polls the replicas and
// atomically swaps in the refreshed coordinator state.
func cmdCoordinator(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	var shardURLs multiFlag
	fs.Var(&shardURLs, "shard", "shard replica base URL(s), one flag per shard ordinal in manifest order; comma-separate replicas of the same shard (repeatable)")
	addr := fs.String("addr", ":8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "admission gate: concurrent queries+mutations (0 = 2x GOMAXPROCS)")
	admissionWait := fs.Duration("admission-wait", 0, "max wait for a concurrency slot before 429 (0 = 100ms)")
	timeout := fs.Duration("timeout", 0, "per-request execution deadline before 503 (0 = 30s)")
	cacheEntries := fs.Int("cache", 0, "result cache capacity in entries (0 = 1024, negative disables)")
	maxBody := fs.Int64("max-body", 0, "request body size limit in bytes before 413 (0 = 32MiB)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-attempt deadline for one shard HTTP call (0 = 10s)")
	retries := fs.Int("retries", 1, "extra attempts per failed read-path shard call (-1 disables retries)")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate a slow shard call on a sibling replica after this long (0 disables hedging)")
	retryDelay := fs.Duration("retry-delay", 0, "base backoff between retry attempts, jittered and doubled per attempt (0 = 50ms, negative disables)")
	probeInterval := fs.Duration("probe-interval", 0, "active health-probe cadence for tripped replicas (0 = 1s, negative disables)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive replica failures that open its circuit breaker (0 = 5, negative disables)")
	breakerRate := fs.Float64("breaker-rate", 0, "windowed replica failure rate that opens its breaker (0 = 0.5, negative disables)")
	breakerBackoff := fs.Duration("breaker-backoff", 0, "base open-breaker dwell before a half-open trial, jittered and doubled per failed trial (0 = 500ms)")
	seed := fs.Uint64("seed", 0, "jitter seed for retry/breaker backoff spreading (0 = 1)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(shardURLs) == 0 {
		return fmt.Errorf("coordinator: at least one -shard URL is required")
	}
	rcfg := shard.RemoteConfig{
		ShardTimeout:  *shardTimeout,
		Retries:       *retries,
		HedgeAfter:    *hedgeAfter,
		RetryDelay:    *retryDelay,
		ProbeInterval: *probeInterval,
		Seed:          *seed,
		Breaker: shard.BreakerConfig{
			ConsecutiveFailures: *breakerFailures,
			FailureRate:         *breakerRate,
			Backoff:             *breakerBackoff,
		},
	}
	remote, err := shard.NewRemote(shardURLs, rcfg)
	if err != nil {
		return err
	}
	srv, err := server.New(remote, server.Config{
		MaxConcurrent:  *maxConcurrent,
		AdmissionWait:  *admissionWait,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		CacheEntries:   *cacheEntries,
		LoadFunc: func() (server.Engine, error) {
			return shard.NewRemote(shardURLs, rcfg)
		},
	})
	if err != nil {
		return err
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		stop, err := servePprof("coordinator", *pprofAddr, srv.MetricsHandler())
		if err != nil {
			return err
		}
		defer stop()
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				fmt.Fprintln(os.Stderr, "d3l coordinator: reload:", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "d3l coordinator: re-polled %d shards (engine %016x)\n",
				remote.NumShards(), srv.Engine().Fingerprint())
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	fmt.Fprintf(os.Stderr, "d3l coordinator: listening on %s, fanning out to %d shards / %d replicas (engine %016x)\n",
		*addr, remote.NumShards(), remote.NumReplicas(), remote.Fingerprint())
	for i, u := range remote.URLs() {
		fmt.Fprintf(os.Stderr, "d3l coordinator:   shard %d: %s\n", i, u)
	}

	select {
	case err := <-serveErr:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "d3l coordinator: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		srv.BeginShutdown()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		err := srv.Shutdown(ctx)
		// Stop the active health prober of whichever Remote is
		// current (reloads close retired ones as they are swapped
		// out).
		if c, ok := srv.Engine().(interface{ Close() error }); ok {
			c.Close()
		}
		return err
	}
}
