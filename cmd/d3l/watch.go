package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"d3l"
	"d3l/internal/server"
	"d3l/internal/watch"
)

// cmdWatch keeps a live engine in sync with a lake directory: it polls
// -dir and folds created/changed/deleted CSVs into the engine as
// Add/Update/Remove, logging one delta line per cycle that changed
// anything. Changed tables go through the in-place Update path, so a
// one-column edit re-profiles one column, not the table.
//
// The engine starts from -index (snapshot cold-start; the first cycle
// then reconciles the directory against the snapshot via updates) or
// from -dir itself (indexed at startup; the first cycle is a no-op).
func cmdWatch(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	dir := fs.String("dir", "", "lake directory of CSV files to watch (required)")
	index := fs.String("index", "", "prebuilt snapshot to start from (default: index -dir at startup)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *dir == "" {
		return usagef("watch: -dir is required")
	}
	source := *dir
	if *index != "" {
		source = ""
	}
	engine, err := loadEngine(source, *index, 0)
	if err != nil {
		return err
	}
	w := watch.New(*dir, watch.EngineSink(engine))
	w.Logf = func(format string, a ...any) {
		fmt.Fprintf(stderr, "d3l "+format+"\n", a...)
	}
	// An engine built from the watched directory already holds its
	// tables; seeding records their on-disk state so the first cycle
	// does not re-apply every file. A snapshot engine is deliberately
	// NOT seeded: its contents may lag the directory, and the first
	// cycle's updates reconcile the two.
	if *index == "" {
		if err := w.Seed(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "d3l watch: %s every %v (%d tables, engine %016x)\n",
		*dir, *interval, engine.NumTables(), engine.Fingerprint())
	if err := w.Run(ctx, *interval); err != context.Canceled {
		return err
	}
	fmt.Fprintln(stderr, "d3l watch: stopped")
	return nil
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
