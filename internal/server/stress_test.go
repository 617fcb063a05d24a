package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeConcurrentTrafficWithMutationsAndReload is the serving race
// test: steady /v1/query and /v1/batch read traffic interleaved with
// /v1/tables add/remove churn and hot snapshot reloads, under -race.
// The invariants:
//
//   - no request ever answers a 5xx — reads hit live engines only, and
//     mutations racing a reload lose gracefully (404 on a remove whose
//     add landed on the pre-reload engine, 409 on a re-add);
//   - the cache never serves a stale body: the sequential epilogue
//     mutates and immediately re-queries, which must observe the
//     mutation.
func TestServeConcurrentTrafficWithMutationsAndReload(t *testing.T) {
	engine := figure1Engine(t)
	snapPath := saveSnapshot(t, engine, t.TempDir())
	srv, hs := newTestServer(t, engine, Config{
		// Wide-open admission: this test asserts correctness under
		// concurrency, not overload behavior, so nothing may 429.
		MaxConcurrent: 64,
		AdmissionWait: time.Minute,
		LoadFunc:      snapshotLoader(snapPath),
	})

	var server5xx atomic.Int64
	checkStatus := func(status int, body []byte, allowed ...int) {
		if status >= 500 {
			server5xx.Add(1)
			t.Errorf("5xx under traffic: %d %s", status, body)
			return
		}
		for _, ok := range allowed {
			if status == ok {
				return
			}
		}
		t.Errorf("unexpected status %d (allowed %v): %s", status, allowed, body)
	}

	const (
		readers    = 4
		queriesPer = 30
		mutations  = 25
		reloads    = 3
	)
	var wg sync.WaitGroup

	// Read traffic: alternating query and batch, rotating k so both
	// cache hits and misses occur.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < queriesPer; i++ {
				k := 1 + (i % 3)
				if i%2 == 0 {
					status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(k)})
					checkStatus(status, body, http.StatusOK)
				} else {
					status, body := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Tables: []TableJSON{figure1TargetJSON()}, K: kptr(k)})
					checkStatus(status, body, http.StatusOK)
				}
			}
		}(r)
	}

	// Mutation churn: add a uniquely named table, then remove it. A
	// hot reload may swap the engine between the two, in which case
	// the remove legitimately answers 404 (the add landed on the
	// pre-reload engine) — but never a 5xx.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			name := fmt.Sprintf("stress_extra_%d", i)
			tbl := TableJSON{
				Name:    name,
				Columns: []string{"Practice", "City", "Postcode"},
				Rows:    [][]string{{"Blackfriars", "Salford", "M3 6AF"}},
			}
			status, body := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: tbl})
			checkStatus(status, body, http.StatusOK, http.StatusConflict)
			status, body = doRequest(t, http.MethodDelete, hs.URL+"/v1/tables/"+name, nil)
			checkStatus(status, body, http.StatusOK, http.StatusNotFound)
		}
	}()

	// Hot reloads under the same traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			time.Sleep(10 * time.Millisecond)
			status, body := postJSON(t, hs.URL+"/v1/reload", struct{}{})
			checkStatus(status, body, http.StatusOK)
		}
	}()

	// Stats polling rides along (it reads engine state under traffic).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			getStats(t, hs.URL)
		}
	}()

	wg.Wait()
	if n := server5xx.Load(); n > 0 {
		t.Fatalf("%d server errors under concurrent traffic", n)
	}

	// Sequential cache-consistency epilogue: with traffic quiesced,
	// a mutation followed immediately by the same query must observe
	// the mutation — the cached pre-mutation body must not replay.
	req := QueryRequest{Table: figure1TargetJSON(), K: kptr(5)}
	names := func() []string {
		status, body := postJSON(t, hs.URL+"/v1/query", req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(resp.Results))
		for i, r := range resp.Results {
			out[i] = r.Name
		}
		return out
	}
	contains := func(ns []string, want string) bool {
		for _, n := range ns {
			if n == want {
				return true
			}
		}
		return false
	}
	// Warm the cache, then add a strong match for the target.
	if contains(names(), "cache_probe") {
		t.Fatal("probe present before add")
	}
	probe := figure1TargetJSON()
	probe.Name = "cache_probe"
	if status, body := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: probe}); status != http.StatusOK {
		t.Fatalf("probe add: %d %s", status, body)
	}
	if !contains(names(), "cache_probe") {
		t.Fatal("stale cache: added table missing from immediate re-query")
	}
	if status, body := doRequest(t, http.MethodDelete, hs.URL+"/v1/tables/cache_probe", nil); status != http.StatusOK {
		t.Fatalf("probe remove: %d %s", status, body)
	}
	if contains(names(), "cache_probe") {
		t.Fatal("stale cache: removed table still answered")
	}

	// The run exercised the cache both ways.
	s := getStats(t, hs.URL)
	if s.CacheHits == 0 || s.CacheMisses == 0 {
		t.Fatalf("stress run never exercised the cache: hits=%d misses=%d", s.CacheHits, s.CacheMisses)
	}
	// The detached worker decrements inFlight after delivering its
	// outcome, so the last response can arrive a beat before the
	// counter drops; wait for it rather than racing it.
	for i := 0; srv.stats.inFlight.Load() != 0; i++ {
		if i > 5000 {
			t.Fatalf("inFlight = %d after quiesce", srv.stats.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
