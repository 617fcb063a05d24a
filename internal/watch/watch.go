// Package watch folds filesystem changes in a lake directory into a
// live engine. A Watcher polls a directory of CSV files and maps the
// observed deltas onto the engine mutation API: a new file becomes
// Add, a changed file becomes an in-place Update (so unchanged columns
// keep their profiles and index keys), and a deleted file becomes
// Remove.
//
// Polling, not inotify: the watcher compares (mtime, size) pairs per
// file once per interval. That is portable (NFS, overlayfs, containers
// without inotify budgets), needs no OS-specific dependencies, and is
// cheap at lake scale — a directory stat sweep is microseconds next to
// re-profiling even one column. The cost is latency bounded by the
// interval, which is the right trade for a discovery index that
// answers approximate queries anyway.
//
// Failure discipline: per-file state is recorded only after the sink
// accepted the mutation. A CSV that fails to parse (or a mutation the
// sink rejects) is counted in CycleStats.Failed and retried on every
// subsequent cycle until the file changes again or the error clears —
// a truncated file mid-copy heals itself on the next poll once the
// writer finishes.
package watch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"d3l"
	"d3l/internal/table"
)

// Sink is the mutation surface the watcher folds deltas into. It is an
// interface because the serving engine of d3l serve -watch takes every
// mutation through the server's admission gate and purges its result
// cache, while the tests drive a bare engine.
type Sink interface {
	// Has reports whether a live table with this name exists.
	Has(name string) bool
	// Add inserts a new table.
	Add(t *d3l.Table) error
	// Update replaces an existing table in place, returning how many
	// columns were re-profiled (the update delta).
	Update(t *d3l.Table) (reprofiled int, err error)
	// Remove deletes a table by name.
	Remove(name string) error
}

// fileState is the change-detection key for one CSV file. Two polls
// that observe the same (mtime, size) are treated as the same content;
// a writer that rewrites a file within mtime granularity AND to the
// same byte length is missed, which is acceptable for bulk lake drops
// (and self-corrects on any later real change).
type fileState struct {
	modTime time.Time
	size    int64
}

// CycleStats summarises one Sync pass.
type CycleStats struct {
	Scanned   int // CSV files seen in the directory
	Added     int // tables added
	Updated   int // tables updated in place
	DeltaCols int // columns re-profiled across all updates
	Removed   int // tables removed
	Failed    int // files whose read or mutation failed (retried next cycle)
	Skipped   int // files whose stem is not a valid table name
}

// changed reports whether the cycle applied any mutation.
func (c CycleStats) changed() bool { return c.Added+c.Updated+c.Removed > 0 }

// String renders the per-cycle delta line the Run loop logs.
func (c CycleStats) String() string {
	return fmt.Sprintf("scanned %d: +%d added, ~%d updated (%d cols re-profiled), -%d removed, %d failed",
		c.Scanned, c.Added, c.Updated, c.DeltaCols, c.Removed, c.Failed)
}

// Watcher polls one directory and applies deltas to one sink. It is
// not safe for concurrent use; Run and Sync must be called from a
// single goroutine (the sink handles its own synchronisation).
type Watcher struct {
	dir  string
	sink Sink
	// Logf receives one line per event worth an operator's attention
	// (per-file failures, per-cycle deltas). Defaults to a silent
	// logger; Run installs nothing extra.
	Logf func(format string, args ...any)
	// known maps table name -> last successfully applied file state.
	known map[string]fileState
}

// New returns a watcher over dir feeding sink. The watcher starts
// blank: the first Sync treats every file as created, which is
// idempotent against a sink already holding the same tables only if
// the caller seeds state first — use Seed for engines built from the
// same directory.
func New(dir string, sink Sink) *Watcher {
	return &Watcher{
		dir:   dir,
		sink:  sink,
		Logf:  func(string, ...any) {},
		known: make(map[string]fileState),
	}
}

// Seed records the current on-disk state of every CSV whose table the
// sink already has, without mutating the sink. Call it when the engine
// was just built from the watched directory, so the first Sync does
// not re-apply every file as an update.
func (w *Watcher) Seed() error {
	files, err := w.scan()
	if err != nil {
		return err
	}
	for name, st := range files {
		if w.sink.Has(name) {
			w.known[name] = st
		}
	}
	return nil
}

// scan stats every *.csv in the directory and returns name -> state.
// Files whose stem is not a valid table name are excluded (they could
// never round-trip through the lake); the caller counts them via
// scanSkipped.
func (w *Watcher) scan() (map[string]fileState, error) {
	files, _, err := w.scanCounting()
	return files, err
}

func (w *Watcher) scanCounting() (map[string]fileState, int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, 0, err
	}
	files := make(map[string]fileState, len(entries))
	skipped := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		if err := table.ValidateName(name); err != nil {
			skipped++
			w.Logf("watch: skipping %s: %v", e.Name(), err)
			continue
		}
		info, err := e.Info()
		if err != nil {
			// Deleted between ReadDir and stat: treat as absent this
			// cycle; the removal is folded in next cycle.
			continue
		}
		files[name] = fileState{modTime: info.ModTime(), size: info.Size()}
	}
	return files, skipped, nil
}

// Sync runs one poll cycle: diff the directory against the recorded
// state and fold every delta into the sink. Per-file failures are
// logged and counted, not fatal; only a directory-level error (the
// watched dir vanished) fails the cycle.
func (w *Watcher) Sync() (CycleStats, error) {
	files, skipped, err := w.scanCounting()
	if err != nil {
		return CycleStats{}, err
	}
	stats := CycleStats{Scanned: len(files), Skipped: skipped}

	// Deterministic application order (lexicographic, removals last)
	// so logs and tests are stable.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		st := files[name]
		prev, seen := w.known[name]
		if seen && prev == st {
			continue // unchanged
		}
		t, err := table.ReadCSVFile(filepath.Join(w.dir, name+".csv"))
		if err != nil {
			stats.Failed++
			w.Logf("watch: %s: %v", name, err)
			continue
		}
		if w.sink.Has(name) {
			delta, err := w.sink.Update(t)
			if err != nil {
				stats.Failed++
				w.Logf("watch: update %s: %v", name, err)
				continue
			}
			stats.Updated++
			stats.DeltaCols += delta
		} else {
			if err := w.sink.Add(t); err != nil {
				stats.Failed++
				w.Logf("watch: add %s: %v", name, err)
				continue
			}
			stats.Added++
		}
		w.known[name] = st
	}

	for name := range w.known {
		if _, ok := files[name]; ok {
			continue
		}
		err := w.sink.Remove(name)
		if err != nil && !errors.Is(err, d3l.ErrTableNotFound) {
			stats.Failed++
			w.Logf("watch: remove %s: %v", name, err)
			continue
		}
		stats.Removed++
		delete(w.known, name)
	}
	return stats, nil
}

// Run polls until ctx is cancelled, logging one delta line per cycle
// that changed anything. The first cycle runs immediately; a cycle
// whose directory scan fails is logged and retried (the directory may
// be mid-recreate), not fatal.
func (w *Watcher) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		stats, err := w.Sync()
		switch {
		case err != nil:
			w.Logf("watch: %v", err)
		case stats.changed() || stats.Failed > 0:
			w.Logf("watch: %s", stats)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
