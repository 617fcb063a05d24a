package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// decodeEnvelope asserts the uniform error envelope shape and returns
// the code.
func decodeEnvelope(t *testing.T, body []byte) string {
	t.Helper()
	var env ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error.Code
}

// TestServeErrorPaths pins every client-visible failure onto its
// status code and envelope code: the HTTP layer's error contract.
func TestServeErrorPaths(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{MaxBodyBytes: 4096})
	valid := func(k int) []byte {
		b, err := json.Marshal(QueryRequest{Table: figure1TargetJSON(), K: kptr(k)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bigBody, err := json.Marshal(QueryRequest{
		Table: TableJSON{
			Name:    "big",
			Columns: []string{"c"},
			Rows:    [][]string{{strings.Repeat("x", 8192)}},
		},
		K: kptr(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"malformed json", "POST", "/v1/query", []byte(`{"table": {`), http.StatusBadRequest, CodeBadRequest},
		{"not json at all", "POST", "/v1/query", []byte(`hello`), http.StatusBadRequest, CodeBadRequest},
		{"zero k", "POST", "/v1/query", valid(0), http.StatusBadRequest, CodeBadRequest},
		{"negative k", "POST", "/v1/query", valid(-3), http.StatusBadRequest, CodeBadRequest},
		{"missing table", "POST", "/v1/query", []byte(`{"k":3}`), http.StatusBadRequest, CodeBadRequest},
		{"oversized body", "POST", "/v1/query", bigBody, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"batch no targets", "POST", "/v1/batch", []byte(`{"tables":[],"k":3}`), http.StatusBadRequest, CodeBadRequest},
		{"batch bad member", "POST", "/v1/batch", []byte(`{"tables":[{"name":""}],"k":3}`), http.StatusBadRequest, CodeBadRequest},
		{"explain missing lake table", "POST", "/v1/query", []byte(`{"table":{"name":"t","columns":["c"],"rows":[["v"]]},"k":0}`), http.StatusBadRequest, CodeBadRequest},
		{"explain unknown lake table", "POST", "/v1/query", mustExplainBody(t, "no_such_table"), http.StatusNotFound, CodeNotFound},
		{"remove unknown table", "DELETE", "/v1/tables/no_such_table", nil, http.StatusNotFound, CodeNotFound},
		{"add duplicate name", "POST", "/v1/tables", mustAddBody(t, "S1"), http.StatusConflict, CodeConflict},
		// Assigned write ids (a coordinator's, see AddTableRequest). The
		// figure 1 engine holds 3 tables and 12 attributes.
		{"add negative table id", "POST", "/v1/tables", mustAddAtBody(t, "S4", -1, 12), http.StatusBadRequest, CodeBadRequest},
		{"add negative attribute id", "POST", "/v1/tables", mustAddAtBody(t, "S4", 3, -5), http.StatusBadRequest, CodeBadRequest},
		{"add below the next ids", "POST", "/v1/tables", mustAddAtBody(t, "S4", 2, 12), http.StatusBadRequest, CodeBadRequest},
		{"add past the fill bound", "POST", "/v1/tables", mustAddAtBody(t, "S4", 3, 1<<40), http.StatusBadRequest, CodeBadRequest},
		{"add table id without attribute id", "POST", "/v1/tables", []byte(`{"table":{"name":"S4","columns":["c"],"rows":[["v"]]},"tableID":3}`), http.StatusBadRequest, CodeBadRequest},
		{"update below the next attribute id", "PUT", "/v1/tables/S1", []byte(`{"table":{"name":"S1","columns":["c"],"rows":[["v"]]},"attrID":0}`), http.StatusBadRequest, CodeBadRequest},
		{"the mirror route is gone", "POST", "/v1/shard/mirror", []byte(`{"op":"add","name":"x","numCols":1}`), http.StatusNotFound, CodeNotFound},
		{"unknown route", "GET", "/v1/nope", nil, http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := doRequest(t, tc.method, hs.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, body)
			}
			if code := decodeEnvelope(t, body); code != tc.wantCode {
				t.Fatalf("envelope code %q, want %q (%s)", code, tc.wantCode, body)
			}
		})
	}
}

func mustExplainBody(t *testing.T, lakeTable string) []byte {
	t.Helper()
	b, err := json.Marshal(QueryRequest{Table: figure1TargetJSON(), K: kptr(0), ExplainFor: lakeTable})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustAddBody(t *testing.T, name string) []byte {
	t.Helper()
	tbl := figure1TargetJSON()
	tbl.Name = name
	b, err := json.Marshal(AddTableRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustAddAtBody(t *testing.T, name string, tableID, attrID int) []byte {
	t.Helper()
	tbl := figure1TargetJSON()
	tbl.Name = name
	b, err := json.Marshal(AddTableRequest{Table: tbl, TableID: &tableID, AttrID: &attrID})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeTimeoutExceeded: a query still running at the execution
// deadline answers 503 with code "timeout", and the stats counter
// records it.
func TestServeTimeoutExceeded(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{RequestTimeout: time.Nanosecond})
	status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(3)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", status, body)
	}
	if code := decodeEnvelope(t, body); code != CodeTimeout {
		t.Fatalf("envelope code %q, want %q", code, CodeTimeout)
	}
	if srv.stats.timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}
	// The abandoned query still drains: shutdown must not hang on it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain after timeout: %v", err)
	}
}

// TestServeOverloadedAnswers429: with the gate held and no admission
// wait, a query is rejected immediately with 429 instead of queueing.
func TestServeOverloadedAnswers429(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{MaxConcurrent: 1, AdmissionWait: -1})

	release := make(chan struct{})
	go srv.admit(context.Background(), func(context.Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	for i := 0; srv.stats.inFlight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("gate occupant never started")
		}
		time.Sleep(time.Millisecond)
	}
	defer close(release)

	status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(3)})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", status, body)
	}
	if code := decodeEnvelope(t, body); code != CodeOverloaded {
		t.Fatalf("envelope code %q, want %q", code, CodeOverloaded)
	}
	if srv.stats.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestServeAdmissionWaitRidesOutBursts: with a positive admission
// wait, a request that finds the gate full but sees a slot free up in
// time is served normally — bursts degrade into latency before 429s.
func TestServeAdmissionWaitRidesOutBursts(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{MaxConcurrent: 1, AdmissionWait: 5 * time.Second})

	release := make(chan struct{})
	go srv.admit(context.Background(), func(context.Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	for i := 0; srv.stats.inFlight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("gate occupant never started")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(3)})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 after slot freed (%s)", status, body)
	}
}

// TestServeShutdownRejectsNewWork: every work-admitting endpoint
// answers 503/unavailable once draining, with the envelope shape.
func TestServeShutdownRejectsNewWork(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	srv.BeginShutdown()
	endpoints := []struct {
		method, path string
		body         []byte
	}{
		{"POST", "/v1/query", mustQueryBody(t, 3)},
		{"POST", "/v1/batch", []byte(`{"tables":[{"name":"t","columns":["c"],"rows":[["v"]]}],"k":1}`)},
		{"POST", "/v1/tables", mustAddBody(t, "fresh_name")},
		{"DELETE", "/v1/tables/S1", nil},
		{"POST", "/v1/reload", []byte(`{}`)},
	}
	for _, ep := range endpoints {
		status, body := doRequest(t, ep.method, hs.URL+ep.path, ep.body)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d, want 503 (%s)", ep.method, ep.path, status, body)
		}
		if code := decodeEnvelope(t, body); code != CodeUnavailable {
			t.Fatalf("%s %s: envelope code %q, want %q", ep.method, ep.path, code, CodeUnavailable)
		}
	}
}

func mustQueryBody(t *testing.T, k int) []byte {
	t.Helper()
	b, err := json.Marshal(QueryRequest{Table: figure1TargetJSON(), K: kptr(k)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeConfigValidation: misconfigurations that would reject
// every request must fail at construction, not at serve time.
func TestServeConfigValidation(t *testing.T) {
	engine := figure1Engine(t)
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(engine, Config{MaxConcurrent: -1}); err == nil {
		t.Fatal("negative MaxConcurrent accepted")
	}
	if _, err := New(engine, Config{RequestTimeout: -time.Second}); err == nil {
		t.Fatal("negative RequestTimeout accepted")
	}
	if _, err := New(engine, Config{MaxBodyBytes: -1}); err == nil {
		t.Fatal("negative MaxBodyBytes accepted")
	}
	// Documented negatives stay valid: AdmissionWait < 0 rejects
	// immediately, CacheEntries < 0 disables caching.
	if _, err := New(engine, Config{AdmissionWait: -1, CacheEntries: -1}); err != nil {
		t.Fatalf("documented negative settings rejected: %v", err)
	}
}

// TestServeTimeoutStillCaches: cancellation is cooperative, so a
// computation that never observes its cancelled context (this one
// blocks on a channel, not on ctx) still completes in the detached
// goroutine and lands in the cache — the timed-out leader got its 503,
// but the finished work is not thrown away, and the next identical
// request is a hit instead of a full recompute. (Engine queries DO
// observe ctx and exit early; see cancel_test.go for that side.)
func TestServeTimeoutStillCaches(t *testing.T) {
	srv, _ := newTestServer(t, figure1Engine(t), Config{RequestTimeout: 10 * time.Millisecond})
	const key = "timeout-cache-key"
	release := make(chan struct{})
	rec := httptest.NewRecorder()
	srv.cachedQuery(rec, httptest.NewRequest("POST", "/v1/query", nil), key, nil, func(context.Context) ([]byte, error) {
		<-release
		return []byte(`{"slow":true}`), nil
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("leader status %d, want 503", rec.Code)
	}
	close(release)
	// The detached goroutine caches on completion.
	for i := 0; ; i++ {
		if body, ok := srv.cache.get(key); ok {
			if string(body) != `{"slow":true}` {
				t.Fatalf("cached %q", body)
			}
			break
		}
		if i > 1000 {
			t.Fatal("abandoned computation never cached")
		}
		time.Sleep(time.Millisecond)
	}
	rec2 := httptest.NewRecorder()
	srv.cachedQuery(rec2, httptest.NewRequest("POST", "/v1/query", nil), key, nil, func(context.Context) ([]byte, error) {
		t.Error("recomputed despite cached result")
		return nil, nil
	})
	if rec2.Code != http.StatusOK || rec2.Body.String() != `{"slow":true}` {
		t.Fatalf("follow-up: %d %q", rec2.Code, rec2.Body.String())
	}
}

// TestServePanicFailsOneRequest: a panic inside a computation answers
// that request (and its coalesced waiters) with 500 instead of
// crashing the serving process or leaving waiters hung.
func TestServePanicFailsOneRequest(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	rec := httptest.NewRecorder()
	srv.cachedQuery(rec, httptest.NewRequest("POST", "/v1/query", nil), "panic-key", nil, func(context.Context) ([]byte, error) {
		panic("boom")
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if code := decodeEnvelope(t, rec.Body.Bytes()); code != CodeInternal {
		t.Fatalf("envelope code %q, want %q", code, CodeInternal)
	}
	// The process survived: a normal request still works.
	if status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}); status != http.StatusOK {
		t.Fatalf("follow-up query: %d %s", status, body)
	}
	// Mutations take the admitMutation path; a panic there must also
	// become a 500, not a crash.
	body, err := srv.admitMutation(context.Background(), func() ([]byte, error) { panic("boom") })
	if err == nil || body != nil {
		t.Fatalf("admitMutation after panic: body=%q err=%v", body, err)
	}
}

// TestServeReloadWithoutSnapshotPath: reload on a server with no
// loader (a -dir server) is a client error, not a crash.
func TestServeReloadWithoutSnapshotPath(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	status, body := postJSON(t, hs.URL+"/v1/reload", struct{}{})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", status, body)
	}
	if code := decodeEnvelope(t, body); code != CodeBadRequest {
		t.Fatalf("envelope code %q, want %q", code, CodeBadRequest)
	}
}

// TestServeReloadBadSnapshot: a corrupt snapshot file must leave the
// old engine serving.
func TestServeReloadBadSnapshot(t *testing.T) {
	engine := figure1Engine(t)
	dir := t.TempDir()
	path := saveSnapshot(t, engine, dir)
	_, hs := newTestServer(t, engine, Config{LoadFunc: snapshotLoader(path)})

	// Corrupt the snapshot on disk.
	data := mustReadFile(t, path)
	data[len(data)/2] ^= 0xff
	mustWriteFile(t, path, data)

	status, body := postJSON(t, hs.URL+"/v1/reload", struct{}{})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", status, body)
	}
	if code := decodeEnvelope(t, body); code != CodeUnavailable {
		t.Fatalf("envelope code %q, want %q", code, CodeUnavailable)
	}
	// Old engine still serves.
	if status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}); status != http.StatusOK {
		t.Fatalf("query after failed reload: status %d (%s)", status, body)
	}
}
