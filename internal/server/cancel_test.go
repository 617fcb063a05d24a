package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// These tests pin the tentpole serving property: a request that times
// out or whose client disconnects has its computation cancelled, its
// worker exits, and its admission slot frees immediately — instead of
// the slot being held until the doomed work runs to completion.

// cooperativeWork models an engine query: it blocks until its context
// is cancelled (as a long computation would keep running), observing
// cancellation the way d3l.Query does. Without cancellation it would
// take fullRuntime.
func cooperativeWork(fullRuntime time.Duration) func(context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(fullRuntime):
			return []byte("{}"), nil
		}
	}
}

// TestTimeoutFreesAdmissionSlot: with a single-slot gate, a timed-out
// request must release its slot long before its computation would have
// finished — a follow-up request gets admitted immediately instead of
// answering 429 for the rest of the computation's lifetime.
func TestTimeoutFreesAdmissionSlot(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{
		MaxConcurrent:  1,
		AdmissionWait:  -1, // reject instantly when the gate is full
		RequestTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The computation would run for a minute; the deadline cancels it
	// after 20ms.
	_, started, err := srv.admit(context.Background(), cooperativeWork(time.Minute))
	if !started || !errors.Is(err, errTimeout) {
		t.Fatalf("admit = started=%v err=%v, want started timeout", started, err)
	}

	// The slot must free as soon as the cancelled worker observes its
	// context — microseconds, not the minute the computation would
	// have taken. Poll with instant admits: the first success proves
	// the release; a full second without one means the slot leaked.
	deadline := time.Now().Add(time.Second)
	for {
		_, _, err := srv.admit(context.Background(), func(context.Context) ([]byte, error) {
			return []byte("{}"), nil
		})
		if err == nil {
			break
		}
		if !errors.Is(err, errOverloaded) {
			t.Fatalf("unexpected admit error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot still held 1s after timeout — abandoned work did not release it")
		}
		time.Sleep(time.Millisecond)
	}
	if srv.stats.timeouts.Load() != 1 {
		t.Fatalf("timeouts = %d, want 1", srv.stats.timeouts.Load())
	}
}

// TestClientDisconnectFreesSlot: same property for a client that goes
// away mid-computation — the request context's cancellation propagates
// into the worker, the slot frees, and the disconnect is counted.
func TestClientDisconnectFreesSlot(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{
		MaxConcurrent:  1,
		AdmissionWait:  -1,
		RequestTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, disconnect := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		disconnect()
	}()
	_, started, err := srv.admit(reqCtx, cooperativeWork(time.Minute))
	if !started || !errors.Is(err, context.Canceled) {
		t.Fatalf("admit = started=%v err=%v, want started canceled", started, err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		_, _, err := srv.admit(context.Background(), func(context.Context) ([]byte, error) { return nil, nil })
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot still held 1s after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if srv.stats.canceled.Load() != 1 {
		t.Fatalf("canceled = %d, want 1", srv.stats.canceled.Load())
	}
}

// TestTimeoutSlotReleaseStress is the -race stress form of the
// acceptance criterion: many concurrent requests against a tiny gate,
// every one timing out, and the gate must end the run fully free with
// the inFlight gauge at zero. Pre-cancellation, each 1-minute
// computation would hold its slot to completion and the run could not
// drain inside the test deadline.
func TestTimeoutSlotReleaseStress(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{
		MaxConcurrent:  2,
		AdmissionWait:  2 * time.Second,
		RequestTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const requests = 40
	var wg sync.WaitGroup
	var timeouts, rejected int
	var mu sync.Mutex
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := srv.admit(context.Background(), cooperativeWork(time.Minute))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, errTimeout):
				timeouts++
			case errors.Is(err, errOverloaded):
				rejected++
			default:
				t.Errorf("unexpected admit outcome: %v", err)
			}
		}()
	}
	wg.Wait()
	// With slots freeing at each 5ms deadline, the 2s admission wait
	// rides out all contention: ~every request must reach a slot and
	// time out rather than bounce off the gate. Pre-cancellation, the
	// two slots would be held for the computations' full minute and
	// 38 of 40 requests would exhaust the wait — the run could not
	// even finish inside the test deadline.
	if timeouts < requests/2 {
		t.Fatalf("only %d/%d requests got a slot (%d rejected) — slots not freeing on timeout", timeouts, requests, rejected)
	}
	// Every worker observed cancellation and exited: the gate is empty
	// and the in-flight gauge returns to zero.
	for i := 0; srv.stats.inFlight.Load() != 0; i++ {
		if i > 2000 {
			t.Fatalf("inFlight = %d after drain", srv.stats.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < cap(srv.gate); i++ {
		select {
		case srv.gate <- struct{}{}:
		default:
			t.Fatalf("gate slot %d still held after all requests settled", i)
		}
	}
}

// TestFastCompletionNeverMisreportedAsTimeout guards the drain-done
// ordering in admitWork: the worker cancels its own work context right
// after delivering the outcome, so for a fast computation both select
// cases can be ready at once — the real outcome must win every time,
// never a spurious 503.
func TestFastCompletionNeverMisreportedAsTimeout(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		body, started, err := srv.admit(context.Background(), func(context.Context) ([]byte, error) {
			return []byte("ok"), nil
		})
		if !started || err != nil || string(body) != "ok" {
			t.Fatalf("iteration %d: started=%v err=%v body=%q — completed work misreported", i, started, err, body)
		}
	}
	if n := srv.stats.timeouts.Load(); n != 0 {
		t.Fatalf("timeouts = %d for work that always finished instantly", n)
	}
}

// TestCancelledRequestAnswers503 drives cancellation through the full
// HTTP handler path: a request whose context is already cancelled gets
// the 503/unavailable envelope, and the engine work it started exits
// through cooperative cancellation.
func TestCancelledRequestAnswers503(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(QueryRequest{Table: figure1TargetJSON()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if code := decodeEnvelope(t, rec.Body.Bytes()); code != CodeUnavailable {
		t.Fatalf("envelope code %q, want %q", code, CodeUnavailable)
	}
	for i := 0; srv.stats.inFlight.Load() != 0; i++ {
		if i > 2000 {
			t.Fatal("cancelled request's worker never exited")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedWaiterRetriesAfterLeaderCancel: when a flight's leader
// is cancelled, a live waiter does not inherit the failure — it
// becomes the new leader, recomputes, and answers 200.
func TestCoalescedWaiterRetriesAfterLeaderCancel(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const key = "leader-cancel-key"
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	leaderDone := make(chan struct{})
	rec1 := httptest.NewRecorder()
	go func() {
		defer close(leaderDone)
		req := httptest.NewRequest("POST", "/v1/query", nil).WithContext(leaderCtx)
		srv.cachedQuery(rec1, req, key, nil, func(ctx context.Context) ([]byte, error) {
			close(leaderStarted)
			<-ctx.Done() // cooperative computation
			return nil, ctx.Err()
		})
	}()
	<-leaderStarted

	waiterDone := make(chan struct{})
	rec2 := httptest.NewRecorder()
	go func() {
		defer close(waiterDone)
		srv.cachedQuery(rec2, httptest.NewRequest("POST", "/v1/query", nil), key, nil, func(ctx context.Context) ([]byte, error) {
			return []byte(`{"retried":true}`), nil
		})
	}()
	// Wait for the waiter to join the flight, then kill the leader.
	for i := 0; srv.stats.coalesced.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	<-leaderDone
	<-waiterDone
	if rec1.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled leader status %d, want 503", rec1.Code)
	}
	if rec2.Code != http.StatusOK || rec2.Body.String() != `{"retried":true}` {
		t.Fatalf("waiter after leader cancel: %d %q — should have recomputed", rec2.Code, rec2.Body.String())
	}
}
