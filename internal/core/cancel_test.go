package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d3l/internal/table"
)

// The cancellation contract: a cancelled query returns ctx.Err() — not
// a partial answer — and releases its workers promptly. These tests
// pin both halves at every core entry point.

func TestSearchSpecCancelledBeforeStart(t *testing.T) {
	e, err := BuildEngine(figure1Lake(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.SearchSpec(ctx, figure1Target(t), QuerySpec{K: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled search returned a partial answer")
	}
}

func TestSearchSpecDeadlineAlreadyExpired(t *testing.T) {
	e, err := BuildEngine(figure1Lake(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := e.SearchSpec(ctx, figure1Target(t), QuerySpec{K: 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("expired search returned a partial answer")
	}
}

// TestSearchSpecCancelMidFlight races live searches against
// cancellation at random points (under -race this also proves the
// cancellation paths are data-race free). The invariant: every call
// either returns the complete, correct ranking or exactly ctx.Err() —
// never a truncated answer, never a spurious success with missing
// tables.
func TestSearchSpecCancelMidFlight(t *testing.T) {
	lake := syntheticLake(t, 99, 40)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(0)
	want, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantSig := rankingSignature(want.Ranked, true)

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				// Stagger cancellation across the pipeline's phases.
				time.Sleep(time.Duration(i%8) * 50 * time.Microsecond)
				cancel()
			}()
			res, err := e.SearchSpec(ctx, target, QuerySpec{K: 10})
			switch {
			case err != nil:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected error: %v", err)
				}
				if res != nil {
					t.Error("error with non-nil result")
				}
			default:
				if got := rankingSignature(res.Ranked, true); got != wantSig {
					t.Errorf("successful result diverged from uncancelled ranking:\n got %s\nwant %s", got, wantSig)
				}
			}
		}(i)
	}
	wg.Wait()
}

// pollCancelCtx is a context that reports cancellation from its
// (after+1)th Err() poll on — cancellation landing at an exact point of
// a cooperative pipeline, without a clock. Done is non-nil (so the
// pipeline takes its cancellable paths) but never closes: everything
// under test polls Err.
type pollCancelCtx struct {
	context.Context
	after atomic.Int64
	done  chan struct{}
}

func newPollCancelCtx(after int) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background(), done: make(chan struct{})}
	c.after.Store(int64(after))
	return c
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	if c.after.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestShardGatherCancelMidFlight is TestSearchSpecCancelMidFlight for a
// shard's gather phase, which a hedge loser or an abandoned coordinator
// request cancels routinely. Cancellation is landed at every poll point
// in turn: each call returns either ctx.Err() and no partial, or the
// complete partial. And the poll points must outnumber the columns —
// the gather stops inside a column (every candidateBatch pairs), not
// only between columns, so a cancelled replica is not left scoring a
// whole column for nobody.
func TestShardGatherCancelMidFlight(t *testing.T) {
	lake := syntheticLake(t, 99, 120)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(0)
	tprofiles := e.ProfileTarget(target)
	spec := QuerySpec{K: 10, CandidateBudget: 256} // several candidate batches per column
	probe, err := e.ShardProbeProfiled(context.Background(), tprofiles, spec)
	if err != nil {
		t.Fatal(err)
	}
	depths, err := MergeProbeDepths([]*ShardProbe{probe})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ShardGatherProfiled(context.Background(), tprofiles, spec, depths)
	if err != nil {
		t.Fatal(err)
	}
	if want.PairCount <= candidateBatch*len(tprofiles) {
		t.Fatalf("lake too small to cancel inside a column: %d pairs over %d columns", want.PairCount, len(tprofiles))
	}
	polls := 0
	for ; ; polls++ {
		got, err := e.ShardGatherProfiled(newPollCancelCtx(polls), tprofiles, spec, depths)
		if err == nil {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cancellation after poll %d: successful partial diverged from the uncancelled one", polls)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation at poll %d: unexpected error %v", polls, err)
		}
		if got != nil {
			t.Fatalf("cancellation at poll %d: error with a partial of %d tables", polls, len(got.Tables))
		}
		if polls > 10_000 {
			t.Fatal("gather never completed")
		}
	}
	if between := 1 + len(tprofiles); polls <= between {
		t.Fatalf("gather polls ctx %d times over %d columns: it only stops between columns", polls, len(tprofiles))
	}
}

func TestBatchSearchSpecCancelled(t *testing.T) {
	lake := syntheticLake(t, 7, 30)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*table.Table, 20)
	for i := range targets {
		targets[i] = lake.Table(i % lake.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := e.BatchSearchSpec(ctx, targets, QuerySpec{K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled batch returned answers")
	}
}

func TestExplainSpecCancelled(t *testing.T) {
	e, err := BuildEngine(figure1Lake(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := e.ExplainSpec(ctx, figure1Target(t), "S2", QuerySpec{K: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatal("cancelled explain returned rows")
	}
}

// TestSearchSpecDefaultsMatchSearch: overrides that restate the engine's
// own configuration must not move the ranking the zero spec gives.
func TestSearchSpecDefaultsMatchSearch(t *testing.T) {
	lake := syntheticLake(t, 21, 25)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := lake.Table(3)
	want, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := e.Options().Weights
	got2, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 8, Weights: &w})
	if err != nil {
		t.Fatal(err)
	}
	if rankingSignature(got2.Ranked, true) != rankingSignature(want.Ranked, true) {
		t.Fatal("engine-equal weight override changed the ranking")
	}
}

// TestSearchSpecEvidenceMask: per-query disabled evidence contributes
// distance 1 and weight 0, exactly like the engine-level ablations —
// and merges with (never overrides) the engine mask.
func TestSearchSpecEvidenceMask(t *testing.T) {
	e, err := BuildEngine(figure1Lake(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// name+value only: the other three evidence types must read 1.
	var disabled [NumEvidence]bool
	disabled[EvidenceFormat] = true
	disabled[EvidenceEmbedding] = true
	disabled[EvidenceDomain] = true
	res, err := e.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 3, Disabled: &disabled})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) == 0 {
		t.Fatal("name+value query found nothing in the Figure 1 lake")
	}
	for _, r := range res.Ranked {
		for _, ev := range []Evidence{EvidenceFormat, EvidenceEmbedding, EvidenceDomain} {
			if r.Vector[ev] != 1 {
				t.Fatalf("%s: disabled evidence %v contributed distance %v", r.Name, ev, r.Vector[ev])
			}
		}
	}

	// Disabling everything is rejected up front.
	all := [NumEvidence]bool{true, true, true, true, true}
	if _, err := e.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 3, Disabled: &all}); err == nil {
		t.Fatal("all-disabled evidence mask accepted")
	}

	// The per-query mask merges with the engine mask: an engine that
	// disabled name cannot have a query re-enable it into all-off.
	opts := testOptions()
	for t2 := 0; t2 < int(NumEvidence)-1; t2++ {
		opts.Disabled[t2] = true
	}
	e2, err := BuildEngine(figure1Lake(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	var onlyName [NumEvidence]bool
	for t2 := range onlyName {
		onlyName[t2] = Evidence(t2) != EvidenceName
	}
	if _, err := e2.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 3, Disabled: &onlyName}); err == nil {
		t.Fatal("query re-enabled engine-disabled evidence")
	}
}

func TestQuerySpecValidation(t *testing.T) {
	e, err := BuildEngine(figure1Lake(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	target := figure1Target(t)
	if _, err := e.SearchSpec(ctx, target, QuerySpec{K: 0}); err == nil {
		t.Fatal("k 0 accepted")
	}
	if _, err := e.SearchSpec(ctx, target, QuerySpec{K: -1}); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := e.SearchSpec(ctx, target, QuerySpec{K: 3, CandidateBudget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := e.SearchSpec(ctx, target, QuerySpec{K: 3, Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	bad := Weights{-1, 1, 1, 1, 1}
	if _, err := e.SearchSpec(ctx, target, QuerySpec{K: 3, Weights: &bad}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := e.SearchSpec(ctx, nil, QuerySpec{K: 3}); err == nil {
		t.Fatal("nil target accepted")
	}
}

// TestTableNamesAndNameByID: the lock-safe listing and id lookup stay
// coherent under Add/Remove churn (run with -race).
func TestTableNamesAndNameByID(t *testing.T) {
	lake := figure1Lake(t)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := e.TableNames()
	want := []string{"N1", "N2", "S1", "S2", "S3"}
	if len(names) != len(want) {
		t.Fatalf("TableNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("TableNames = %v, want %v", names, want)
		}
	}
	if _, err := e.TableNameByID(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := e.TableNameByID(lake.Len()); err == nil {
		t.Fatal("out-of-range id accepted")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := mustTable(t, "churn",
			[]string{"Practice", "City"},
			[][]string{{"Blackfriars", "Salford"}})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Add(extra); err != nil {
				t.Error(err)
				return
			}
			if err := e.Remove("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if name, err := e.TableNameByID(0); err != nil || name != "S1" {
			t.Fatalf("TableNameByID(0) = %q, %v", name, err)
		}
		for _, n := range e.TableNames() {
			if n == "" {
				t.Fatal("empty name in listing")
			}
		}
	}
	close(stop)
	wg.Wait()
}
