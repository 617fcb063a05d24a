package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"d3l"
)

// ---- shared test fixtures ----------------------------------------------

func mustTable(t testing.TB, name string, cols []string, rows [][]string) *d3l.Table {
	t.Helper()
	tb, err := d3l.NewTable(name, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// figure1Lake is the paper's Figure 1 micro-lake — small enough that
// every e2e request is fast, related enough that answers are non-empty.
func figure1Lake(t testing.TB) *d3l.Lake {
	t.Helper()
	lake := d3l.NewLake()
	for _, tb := range []*d3l.Table{
		mustTable(t, "S1",
			[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
			[][]string{
				{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
				{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
				{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2210"},
			}),
		mustTable(t, "S2",
			[]string{"Practice", "City", "Postcode", "Payment"},
			[][]string{
				{"The London Clinic", "London", "W1G 6BW", "73648"},
				{"Blackfriars", "Salford", "M3 6AF", "15530"},
				{"Radclife Care", "Manchester", "M26 2SP", "20081"},
			}),
		mustTable(t, "S3",
			[]string{"GP", "Location", "Opening hours"},
			[][]string{
				{"Blackfriars", "Salford", "08:00-18:00"},
				{"Radclife Care", "-", "07:00-20:00"},
			}),
	} {
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// kptr builds the pointer form QueryRequest.K and BatchRequest.K take
// (present-vs-omitted is part of the validation contract).
func kptr(k int) *int { return &k }

func figure1TargetJSON() TableJSON {
	return TableJSON{
		Name:    "T",
		Columns: []string{"Practice", "Street", "City", "Postcode", "Hours"},
		Rows: [][]string{
			{"Radclife", "69 Church St", "Manchester", "M26 2SP", "07:00-20:00"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "08:00-16:00"},
		},
	}
}

func figure1Engine(t testing.TB) *d3l.Engine {
	t.Helper()
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// newTestServer wires a Server over the engine and fronts it with an
// httptest listener. Defaults are generous so tests only hit limits
// they configure explicitly.
func newTestServer(t testing.TB, engine Engine, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = time.Minute
	}
	srv, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// postJSON posts v and returns the status and body.
func postJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

func getJSON(t testing.TB, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func doRequest(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

func getStats(t testing.TB, baseURL string) StatsResponse {
	t.Helper()
	var s StatsResponse
	if code := getJSON(t, baseURL+"/v1/statsz", &s); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	return s
}

func mustReadFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustWriteFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// saveSnapshot writes the engine's snapshot to a temp file and returns
// the path.
func saveSnapshot(t testing.TB, engine *d3l.Engine, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "engine.d3l")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d3l.Save(engine, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotLoader is the reload loader `d3l serve -index` configures:
// each call re-reads the snapshot at path.
func snapshotLoader(path string) func() (Engine, error) {
	return func() (Engine, error) {
		engine, err := d3l.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return engine, nil
	}
}

// ---- e2e suite ---------------------------------------------------------

// TestServeTopKMatchesLibrary: the HTTP path must answer byte-for-byte
// what marshaling the library's own answer produces — the server adds
// transport, never reinterpretation.
func TestServeTopKMatchesLibrary(t *testing.T) {
	engine := figure1Engine(t)
	_, hs := newTestServer(t, engine, Config{})

	code, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(3)})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	targetJSON := figure1TargetJSON()
	target, err := targetJSON.toTable()
	if err != nil {
		t.Fatal(err)
	}
	ans, err := engine.Query(context.Background(), target, d3l.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("HTTP body diverged from library answer:\nhttp %s\nlib  %s", body, want)
	}
	if len(ans.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(ans.Results))
	}
}

// TestServeRepeatedQueryHitsCache pins the acceptance criterion: a
// repeated query is served from cache, observable via the /v1/statsz
// hit counter, and the replayed body is byte-identical.
func TestServeRepeatedQueryHitsCache(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	req := QueryRequest{Table: figure1TargetJSON(), K: kptr(3)}

	code, first := postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	s0 := getStats(t, hs.URL)
	if s0.CacheHits != 0 || s0.CacheMisses != 1 || s0.CacheEntries != 1 {
		t.Fatalf("after first query: hits=%d misses=%d entries=%d, want 0/1/1",
			s0.CacheHits, s0.CacheMisses, s0.CacheEntries)
	}
	code, second := postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached replay is not byte-identical")
	}
	if s1 := getStats(t, hs.URL); s1.CacheHits != 1 {
		t.Fatalf("cacheHits = %d after repeat, want 1", s1.CacheHits)
	}

	// A different k is a different canonical fingerprint: miss.
	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if s2 := getStats(t, hs.URL); s2.CacheMisses != 2 {
		t.Fatalf("cacheMisses = %d after distinct query, want 2", s2.CacheMisses)
	}
}

// TestServeMalformedTableIsNeverCached: the target tables are built only
// on a cache miss, and one that does not build is answered 400 before a
// flight starts, so a repeat misses again, gets the same answer, and
// nothing is cached or counted as a miss.
func TestServeMalformedTableIsNeverCached(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	req := QueryRequest{Table: TableJSON{Name: "T"}, K: kptr(3)}
	code, first := postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusBadRequest || !bytes.Contains(first, []byte("has no columns")) {
		t.Fatalf("status %d: %s", code, first)
	}
	if code, second := postJSON(t, hs.URL+"/v1/query", req); code != http.StatusBadRequest || !bytes.Equal(first, second) {
		t.Fatalf("repeat: status %d: %s, first %s", code, second, first)
	}
	if s := getStats(t, hs.URL); s.CacheHits != 0 || s.CacheMisses != 0 || s.CacheEntries != 0 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0/0/0", s.CacheHits, s.CacheMisses, s.CacheEntries)
	}
}

// TestServeMutationsInvalidateCache: a cached answer must not survive
// an Add or Remove that changes it.
func TestServeMutationsInvalidateCache(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	req := QueryRequest{Table: figure1TargetJSON(), K: kptr(5)}

	parse := func(body []byte) []string {
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(resp.Results))
		for i, r := range resp.Results {
			names[i] = r.Name
		}
		return names
	}
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}

	code, body := postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if has(parse(body), "S2_clone") {
		t.Fatal("clone present before add")
	}

	// Add a near-duplicate of S2: it must appear in the re-queried
	// answer, i.e. the pre-mutation cache entry must not be replayed.
	clone := TableJSON{
		Name:    "S2_clone",
		Columns: []string{"Practice", "City", "Postcode", "Payment"},
		Rows: [][]string{
			{"The London Clinic", "London", "W1G 6BW", "73648"},
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
		},
	}
	if code, b := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: clone}); code != http.StatusOK {
		t.Fatalf("add status %d: %s", code, b)
	}
	code, body = postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !has(parse(body), "S2_clone") {
		t.Fatalf("added table missing from post-add answer %v — stale cache", parse(body))
	}

	if code, b := doRequest(t, http.MethodDelete, hs.URL+"/v1/tables/S2_clone", nil); code != http.StatusOK {
		t.Fatalf("remove status %d: %s", code, b)
	}
	code, body = postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if has(parse(body), "S2_clone") {
		t.Fatal("removed table still served — stale cache")
	}
	if s := getStats(t, hs.URL); s.Mutations != 2 {
		t.Fatalf("mutations = %d, want 2", s.Mutations)
	}
}

// TestServeJoinsExplainBatch smoke-tests the joins and explanation
// sections of /v1/query, and /v1/batch, against their library
// counterparts.
func TestServeJoinsExplainBatch(t *testing.T) {
	engine := figure1Engine(t)
	_, hs := newTestServer(t, engine, Config{})
	target := figure1TargetJSON()

	code, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, K: kptr(2), Joins: true})
	if code != http.StatusOK {
		t.Fatalf("joins status %d: %s", code, body)
	}
	var joins QueryResponse
	if err := json.Unmarshal(body, &joins); err != nil {
		t.Fatal(err)
	}
	if len(joins.Joins) == 0 {
		t.Fatal("no augmented results")
	}
	for _, a := range joins.Joins {
		if a.JoinCoverage < a.BaseCoverage {
			t.Fatal("join coverage below base coverage")
		}
	}

	code, body = postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, K: kptr(0), ExplainFor: "S2"})
	if code != http.StatusOK {
		t.Fatalf("explain status %d: %s", code, body)
	}
	var expl QueryResponse
	if err := json.Unmarshal(body, &expl); err != nil {
		t.Fatal(err)
	}
	if len(expl.Explanation) == 0 {
		t.Fatal("no explanation rows")
	}

	code, body = postJSON(t, hs.URL+"/v1/batch", BatchRequest{Tables: []TableJSON{target, target}, K: kptr(2)})
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch answered %d targets, want 2", len(batch.Results))
	}
	if fmt.Sprint(batch.Results[0]) != fmt.Sprint(batch.Results[1]) {
		t.Fatal("identical batch targets got different answers")
	}
}

// TestServeHealthz checks the liveness surface in both states.
func TestServeHealthz(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	var h HealthResponse
	if code := getJSON(t, hs.URL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || h.EngineFingerprint == "" {
		t.Fatalf("healthz = %+v", h)
	}
	if s := getStats(t, hs.URL); s.Tables != 3 || s.Attributes != 12 {
		t.Fatalf("statsz tables/attributes = %d/%d, want 3/12", s.Tables, s.Attributes)
	}
	srv.BeginShutdown()
	var hd HealthResponse
	if code := getJSON(t, hs.URL+"/v1/healthz", &hd); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", code)
	}
	if hd.Status != "draining" {
		t.Fatalf("draining healthz = %+v", hd)
	}
}

// TestServeHotReload: POST /v1/reload must atomically swap in the
// snapshot's engine — the fingerprint moves, the answer reflects the
// snapshot state, and stale cache entries are gone.
func TestServeHotReload(t *testing.T) {
	engine := figure1Engine(t)
	snapPath := saveSnapshot(t, engine, t.TempDir())
	_, hs := newTestServer(t, engine, Config{LoadFunc: snapshotLoader(snapPath)})
	req := QueryRequest{Table: figure1TargetJSON(), K: kptr(5)}

	// Mutate the serving engine away from the snapshot and cache an
	// answer that reflects the mutation.
	if err := engine.Remove("S3"); err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if bytes.Contains(body, []byte(`"name":"S3"`)) {
		t.Fatal("removed table still answered")
	}
	var before HealthResponse
	getJSON(t, hs.URL+"/v1/healthz", &before)

	var rel ReloadResponse
	codeR, bodyR := postJSON(t, hs.URL+"/v1/reload", struct{}{})
	if codeR != http.StatusOK {
		t.Fatalf("reload status %d: %s", codeR, bodyR)
	}
	if err := json.Unmarshal(bodyR, &rel); err != nil {
		t.Fatal(err)
	}
	if !rel.Reloaded || rel.EngineFingerprint == before.EngineFingerprint {
		t.Fatalf("reload = %+v (fingerprint before %s)", rel, before.EngineFingerprint)
	}

	// The snapshot predates the Remove: S3 must be back, proving both
	// the engine swap and that the cached pre-reload answer is gone.
	code, body = postJSON(t, hs.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !bytes.Contains(body, []byte(`"name":"S3"`)) {
		t.Fatalf("snapshot state not serving after reload: %s", body)
	}
	if s := getStats(t, hs.URL); s.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", s.Reloads)
	}
}

// TestServeCoalescesIdenticalMisses: concurrent identical cache
// misses share one computation — the leader computes under the gate,
// waiters receive the same body without running compute.
func TestServeCoalescesIdenticalMisses(t *testing.T) {
	srv, _ := newTestServer(t, figure1Engine(t), Config{})
	const key = "coalesce-test-key"

	started := make(chan struct{})
	release := make(chan struct{})
	leaderRec := httptest.NewRecorder()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		srv.cachedQuery(leaderRec, httptest.NewRequest("POST", "/v1/query", nil), key, nil, func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte(`{"leader":true}`), nil
		})
	}()
	<-started

	const waiters = 3
	recs := make([]*httptest.ResponseRecorder, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			srv.cachedQuery(rec, httptest.NewRequest("POST", "/v1/query", nil), key, nil, func(context.Context) ([]byte, error) {
				t.Error("waiter ran compute instead of coalescing")
				return nil, nil
			})
		}(recs[i])
	}
	// Wait until every waiter has joined the flight, then release.
	for i := 0; srv.stats.coalesced.Load() < waiters; i++ {
		if i > 5000 {
			t.Fatal("waiters never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-leaderDone
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Body.String() != `{"leader":true}` {
			t.Fatalf("waiter %d: %d %q", i, rec.Code, rec.Body.String())
		}
	}
	if misses := srv.stats.cacheMisses.Load(); misses != 1 {
		t.Fatalf("cacheMisses = %d, want 1 (one computation for %d requests)", misses, waiters+1)
	}
}

// TestServeMutationsRacingReload drives Add requests against
// concurrent Reloads. The swap lock guarantees a mutation never lands
// on an engine mid-retirement (an acknowledged write either completes
// before the swap or executes on the new engine); what is observable
// here is that the race produces no errors, no deadlock between
// swapMu/admission/reloadMu, and a consistent serving engine after
// every round.
func TestServeMutationsRacingReload(t *testing.T) {
	engine := figure1Engine(t)
	snapPath := saveSnapshot(t, engine, t.TempDir())
	srv, hs := newTestServer(t, engine, Config{LoadFunc: snapshotLoader(snapPath), MaxConcurrent: 16})

	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("swap_race_%d", i)
		tbl := figure1TargetJSON()
		tbl.Name = name
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Reload(); err != nil {
				t.Error(err)
			}
		}()
		status, body := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: tbl})
		wg.Wait()
		if status != http.StatusOK {
			t.Fatalf("add %s: %d %s", name, status, body)
		}
		// The table is present iff the add serialised after the swap;
		// either way the round must leave a consistent engine that
		// answers the lookup and (when present) the removal cleanly.
		if srv.Engine().HasTable(name) {
			status, body := doRequest(t, http.MethodDelete, hs.URL+"/v1/tables/"+name, nil)
			if status != http.StatusOK {
				t.Fatalf("cleanup %s: %d %s", name, status, body)
			}
		}
	}
}

// TestServeSwapWithEqualFingerprint: the engine fingerprint hashes
// identity (names, counts, options), not cell contents, so a swapped
// engine can legitimately report the same fingerprint as its
// predecessor while ranking differently. The swap generation in the
// cache key must keep the old answer from being replayed.
func TestServeSwapWithEqualFingerprint(t *testing.T) {
	engine1 := figure1Engine(t)

	// Same table names, schemas and row counts, different cell data:
	// identical fingerprint base, different rankings.
	editedLake := d3l.NewLake()
	for _, tb := range figure1Lake(t).Tables() {
		cols := make([]string, len(tb.Columns))
		rows := make([][]string, tb.Rows())
		for c, col := range tb.Columns {
			cols[c] = col.Name
		}
		for r := 0; r < tb.Rows(); r++ {
			row := make([]string, len(cols))
			for c, col := range tb.Columns {
				row[c] = "zz_" + col.Values[r]
			}
			rows[r] = row
		}
		if _, err := editedLake.Add(mustTable(t, tb.Name, cols, rows)); err != nil {
			t.Fatal(err)
		}
	}
	engine2, err := d3l.New(editedLake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if engine1.Fingerprint() != engine2.Fingerprint() {
		t.Fatal("test premise broken: edited lake no longer fingerprint-equal")
	}

	srv, hs := newTestServer(t, engine1, Config{})
	req := QueryRequest{Table: figure1TargetJSON(), K: kptr(3)}
	_, before := postJSON(t, hs.URL+"/v1/query", req)
	if err := srv.Swap(engine2); err != nil {
		t.Fatal(err)
	}
	_, after := postJSON(t, hs.URL+"/v1/query", req)
	if bytes.Equal(before, after) {
		t.Fatal("stale cache: pre-swap answer replayed for a fingerprint-equal engine")
	}
	if s := getStats(t, hs.URL); s.CacheHits != 0 {
		t.Fatalf("cacheHits = %d across the swap, want 0", s.CacheHits)
	}
}

// TestServeShutdownDrainsInFlight: work admitted before shutdown runs
// to completion while the drain waits for it; work after is rejected.
func TestServeShutdownDrainsInFlight(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})

	// Occupy the gate with a controllable in-flight "query".
	release := make(chan struct{})
	admitted := make(chan error, 1)
	go func() {
		_, _, err := srv.admit(t.Context(), func(context.Context) ([]byte, error) {
			<-release
			return []byte("{}"), nil
		})
		admitted <- err
	}()
	// Wait until the work is actually in flight.
	for i := 0; srv.stats.inFlight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("work never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginShutdown()
	if code, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(1)}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown query status %d: %s", code, body)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before in-flight work finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	if err := <-admitted; err != nil {
		t.Fatalf("in-flight work was not drained cleanly: %v", err)
	}
}
