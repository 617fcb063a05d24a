package main

import (
	"context"
	"flag"
	"fmt"
	"io"

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
func cmdCoordinator(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	var shardURLs multiFlag
	fs.Var(&shardURLs, "shard", "shard replica base URL(s), one flag per shard ordinal in manifest order; comma-separate replicas of the same shard (repeatable)")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-attempt deadline for one shard HTTP call (0 = 10s)")
	retries := fs.Int("retries", 1, "extra attempts per failed read-path shard call (-1 disables retries)")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate a slow shard call on a sibling replica after this long (0 disables hedging)")
	retryDelay := fs.Duration("retry-delay", 0, "base backoff between retry attempts, jittered and doubled per attempt (0 = 50ms, negative disables)")
	probeInterval := fs.Duration("probe-interval", 0, "active health-probe cadence for tripped replicas (0 = 1s, negative disables)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive replica failures that open its circuit breaker (0 = 5, negative disables)")
	breakerRate := fs.Float64("breaker-rate", 0, "windowed replica failure rate that opens its breaker (0 = 0.5, negative disables)")
	breakerBackoff := fs.Duration("breaker-backoff", 0, "base open-breaker dwell before a half-open trial, jittered and doubled per failed trial (0 = 500ms)")
	seed := fs.Uint64("seed", 0, "jitter seed for retry/breaker backoff spreading (0 = 1)")
	f := newFront(fs)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if len(shardURLs) == 0 {
		return usagef("coordinator: at least one -shard URL is required")
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
	f.cfg.LoadFunc = func() (server.Engine, error) {
		return shard.NewRemote(shardURLs, rcfg)
	}
	srv, err := server.New(remote, f.cfg)
	if err != nil {
		remote.Close()
		return err
	}
	about := fmt.Sprintf(", fanning out to %d shards / %d replicas (engine %016x)",
		remote.NumShards(), remote.NumReplicas(), remote.Fingerprint())
	for i, u := range remote.URLs() {
		about += fmt.Sprintf("\nd3l coordinator:   shard %d: %s", i, u)
	}
	err = f.serve(ctx, "coordinator", srv, stderr, about)
	// Stop the active health prober of whichever Remote is current
	// (reloads close retired ones as they are swapped out).
	if c, ok := srv.Engine().(interface{ Close() error }); ok {
		c.Close()
	}
	return err
}
