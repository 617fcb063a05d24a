package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"d3l/internal/faultproxy"
)

// cmdFaultproxy runs the deterministic fault-injecting reverse proxy
// in front of one backend (normally a `d3l serve` shard replica). The
// chaos-smoke script and local failure drills put one of these between
// the coordinator and each replica, then flip faults at runtime via
// the control surface:
//
//	GET  /_fault/rules   current rules
//	POST /_fault/rules   replace rules (JSON Rules document)
//	GET  /_fault/stats   injection counters
//
// Fault draws are seeded per request index, so a given (seed, rules,
// request order) run injects an identical fault schedule — a failing
// chaos run replays exactly.
func cmdFaultproxy(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("faultproxy", flag.ContinueOnError)
	listen := fs.String("listen", ":8191", "listen address")
	target := fs.String("target", "", "backend base URL to forward to (required)")
	seed := fs.Uint64("seed", 1, "fault-schedule seed")
	latency := fs.Duration("latency", 0, "injected latency when the latency draw fires")
	latencyProb := fs.Float64("latency-prob", 0, "probability of injecting latency per request")
	errorProb := fs.Float64("error-prob", 0, "probability of answering an injected error per request")
	errorStatus := fs.Int("error-status", 0, "status for injected errors (0 = 503)")
	resetProb := fs.Float64("reset-prob", 0, "probability of a TCP reset per request")
	truncateProb := fs.Float64("truncate-prob", 0, "probability of truncating the response body per request")
	blackholeProb := fs.Float64("blackhole-prob", 0, "probability of accepting and never answering per request")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *target == "" {
		return usagef("faultproxy: -target is required")
	}
	proxy, err := faultproxy.New(*target, *seed)
	if err != nil {
		return err
	}
	proxy.SetRules(faultproxy.Rules{
		Latency:       *latency,
		LatencyProb:   *latencyProb,
		ErrorProb:     *errorProb,
		ErrorStatus:   *errorStatus,
		ResetProb:     *resetProb,
		TruncateProb:  *truncateProb,
		BlackholeProb: *blackholeProb,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           proxy,
		ReadHeaderTimeout: 10 * time.Second,
		// No ReadTimeout/WriteTimeout: blackholed requests must be
		// able to outlive any server-side clock — the *client's*
		// deadline is the thing under test.
		IdleTimeout: 2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "d3l faultproxy: listening on %s -> %s (seed %d)\n", ln.Addr(), proxy.Target(), *seed)
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stderr, "d3l faultproxy: signalled, closing")
		return hs.Close()
	}
}
