package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryItemOnce: every index runs exactly once, at any worker
// count, and one worker runs them in ascending order.
func TestForRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 1000} {
		for _, n := range []int{0, 1, 2, 7, 500} {
			counts := make([]atomic.Int32, n)
			var order []int
			err := For(context.Background(), n, workers, nil, func(_ struct{}, i int) error {
				counts[i].Add(1)
				if workers == 1 {
					order = append(order, i)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers %d n %d: %v", workers, n, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers %d n %d: item %d ran %d times", workers, n, i, c)
				}
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("one worker ran item %d at step %d", got, i)
				}
			}
		}
	}
}

// TestForStartsOneStatePerWorker: 0 workers is GOMAXPROCS, the count is
// capped at n, and each worker makes one state that no other worker
// touches (the race detector checks the unsynchronised count).
func TestForStartsOneStatePerWorker(t *testing.T) {
	type state struct {
		busy  atomic.Bool
		items int
	}
	for _, c := range []struct{ n, workers, want int }{
		{0, 4, 0},
		{1, 4, 1},
		{3, 0, min(runtime.GOMAXPROCS(0), 3)},
		{100, 4, 4},
		{100, 1, 1},
	} {
		var states atomic.Int32
		var shared atomic.Bool
		var total atomic.Int64
		err := For(context.Background(), c.n, c.workers,
			func() *state { states.Add(1); return new(state) },
			func(s *state, i int) error {
				if !s.busy.CompareAndSwap(false, true) {
					shared.Store(true)
				}
				s.items++
				total.Add(1)
				s.busy.Store(false)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(states.Load()); got != c.want {
			t.Errorf("n %d workers %d: %d states, want %d", c.n, c.workers, got, c.want)
		}
		if shared.Load() {
			t.Errorf("n %d workers %d: two workers used one state at once", c.n, c.workers)
		}
		if total.Load() != int64(c.n) {
			t.Errorf("n %d workers %d: %d items ran", c.n, c.workers, total.Load())
		}
	}
}

// TestForStopsAtFailure: after item i fails, every item below i has run,
// the error returned is the lowest failing item's, and the run stops
// handing out items.
func TestForStopsAtFailure(t *testing.T) {
	const n = 2000
	for _, workers := range []int{1, 2, 4} {
		for _, fails := range [][]int{{57}, {57, 58}, {0}, {n - 1}, {300, 40}} {
			var ran [n]atomic.Bool
			failing := map[int]bool{}
			for _, i := range fails {
				failing[i] = true
			}
			lowest := min(fails[0], fails[len(fails)-1])
			err := For(context.Background(), n, workers, nil, func(_ struct{}, i int) error {
				ran[i].Store(true)
				if failing[i] {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("item %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("workers %d fails %v: err %v, want %s", workers, fails, err, want)
			}
			started := 0
			for i := range ran {
				if ran[i].Load() {
					started++
				} else if i < lowest {
					t.Fatalf("workers %d fails %v: item %d below the failure never ran", workers, fails, i)
				}
			}
			if workers == 1 && started != lowest+1 {
				t.Fatalf("one worker ran %d items, want %d", started, lowest+1)
			}
			if lowest == 57 && started == n {
				t.Fatalf("workers %d: the failure did not stop the run", workers)
			}
		}
	}
	// Two items fail in either order in time: the lower one's error is
	// returned whichever is recorded first.
	for _, lowFirst := range []bool{true, false} {
		first, second := 57, 58
		if !lowFirst {
			first, second = second, first
		}
		started, done := make(chan struct{}), make(chan struct{})
		err := For(context.Background(), n, 2, nil, func(_ struct{}, i int) error {
			switch i {
			case second:
				close(started)
				<-done
			case first:
				<-started
				close(done)
			default:
				return nil
			}
			return fmt.Errorf("item %d", i)
		})
		if err == nil || err.Error() != "item 57" {
			t.Fatalf("item %d failed first: err %v, want item 57", first, err)
		}
	}
}

// TestForStopsAtCancel: a cancel mid-run makes For return ctx.Err() and
// start no further item — on one worker none at all, on several at most
// the one each other worker had already taken — and cancellation wins
// over an item's failure.
func TestForStopsAtCancel(t *testing.T) {
	const n, at = 1000, 10
	for _, c := range []struct {
		workers int
		fail    bool
	}{{1, false}, {2, false}, {4, false}, {1, true}, {2, true}} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, late atomic.Int32
		err := For(ctx, n, c.workers, nil, func(_ struct{}, i int) error {
			if ctx.Err() != nil {
				late.Add(1)
			}
			started.Add(1)
			if i == at {
				cancel()
				if c.fail {
					return errors.New("failed as it cancelled")
				}
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d fail %v: err %v, want context.Canceled", c.workers, c.fail, err)
		}
		if got := late.Load(); got > int32(c.workers-1) {
			t.Fatalf("workers %d: %d items started after the cancel", c.workers, got)
		}
		if c.workers == 1 && started.Load() != at+1 {
			t.Fatalf("one worker started %d items, want %d", started.Load(), at+1)
		}
		if started.Load() == n {
			t.Fatalf("workers %d: the cancel did not stop the run", c.workers)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := For(ctx, 5, 2, nil, func(struct{}, int) error {
		t.Error("an item started under a done context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: err %v", err)
	}
}

// TestForInlineAllocatesNothing: on one worker, whether asked for or
// because n is 1, For runs on the caller's goroutine and allocates
// nothing.
func TestForInlineAllocatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sum int
	fn := func(_ int, i int) error { sum += i; return nil }
	for _, c := range []struct {
		ctx        context.Context
		n, workers int
	}{
		{context.Background(), 64, 1},
		{ctx, 64, 1},
		{ctx, 1, 0},
		{ctx, 1, 8},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := For(c.ctx, c.n, c.workers, nil, fn); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n %d workers %d: %.1f allocations a run, want 0", c.n, c.workers, allocs)
		}
	}
	if sum == 0 {
		t.Fatal("no item ran")
	}
}
