package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// scrapeMetrics renders /metrics through the real handler without
// passing through ServeHTTP, so the scrape itself does not move the
// request counter — a fresh server exposes an all-zero scrape, which
// is what makes the golden fixture deterministic.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	s.MetricsHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	return rec.Body.String()
}

// fingerprintRe normalises the only nondeterministic byte range of a
// fresh scrape: the engine fingerprint label value.
var fingerprintRe = regexp.MustCompile(`fingerprint="[0-9a-f]{16}"`)

// TestMetricsExpositionGolden pins the full /metrics exposition of a
// fresh server — every family name, TYPE, HELP string, bucket bound
// and zero value — against a committed fixture. Any change to the
// exposed surface (rename, new family, bucket edit) must show up in
// review as a fixture diff. Regenerate intentionally with:
//
//	go test ./internal/server -run MetricsExpositionGolden -update
func TestMetricsExpositionGolden(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprintRe.ReplaceAllString(scrapeMetrics(t, srv), `fingerprint="FINGERPRINT"`)
	path := filepath.Join("testdata", "golden", "metrics.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/server -run MetricsExpositionGolden -update` to generate", err)
	}
	if got != string(want) {
		t.Fatalf("exposition diverged from %s:\n%s\n(intentional? regenerate with -update)",
			path, firstDivergence(want, []byte(got)))
	}
}

// TestMetricsCoverage proves the scrape-completeness gate is sound:
// every family MetricNames declares (and no other) is present from
// process start, and every stage label value has series at zero.
func TestMetricsCoverage(t *testing.T) {
	srv, err := New(figure1Engine(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics(t, srv)
	var typed []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed = append(typed, strings.Fields(rest)[0])
		}
	}
	want := MetricNames()
	if len(typed) != len(want) {
		t.Errorf("scrape exposes %d families, MetricNames declares %d", len(typed), len(want))
	}
	declared := map[string]bool{}
	for _, name := range want {
		declared[name] = true
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("family %s missing from scrape", name)
		}
	}
	for _, name := range typed {
		if !declared[name] {
			t.Errorf("scrape exposes undeclared family %s", name)
		}
	}
	stages := StageLabelValues()
	if len(stages) != 6 {
		t.Fatalf("StageLabelValues() = %v, want 6 stages", stages)
	}
	for _, stage := range stages {
		series := fmt.Sprintf(`d3l_query_stage_duration_seconds_count{stage=%q}`, stage)
		if !strings.Contains(body, series+" ") {
			t.Errorf("stage series %s missing from fresh scrape", series)
		}
	}
}

// metricValue extracts the value of one exactly-named sample line.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %s: unparsable value %q", sample, rest)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in scrape", sample)
	return 0
}

// TestMetricsTrackStatsz drives real traffic through HTTP, then checks
// /metrics and /v1/statsz — the two renderings of the shared snapshot —
// agree on every counter once the server is quiescent, and that the
// stage histograms actually recorded the pipeline.
func TestMetricsTrackStatsz(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	req := QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}
	for i := 0; i < 3; i++ { // 1 miss + 2 byte-identical cache hits
		if status, body := postJSON(t, hs.URL+"/v1/query", req); status != http.StatusOK {
			t.Fatalf("query status %d: %s", status, body)
		}
	}
	body := scrapeMetrics(t, srv)

	var stats StatsResponse
	getJSON(t, hs.URL+"/v1/statsz", &stats)
	// statsz went through ServeHTTP after the scrape, so its request
	// count leads the scrape's by exactly itself.
	checks := []struct {
		sample string
		want   float64
	}{
		{"d3l_http_requests_total", float64(stats.Requests - 1)},
		{"d3l_result_cache_hits_total", float64(stats.CacheHits)},
		{"d3l_result_cache_misses_total", float64(stats.CacheMisses)},
		{"d3l_result_cache_entries", float64(stats.CacheEntries)},
		{"d3l_rejected_total", float64(stats.Rejected)},
		{"d3l_mutations_total", float64(stats.Mutations)},
		{"d3l_engine_tables", float64(stats.Tables)},
		{"d3l_engine_attributes", float64(stats.Attributes)},
		{"d3l_plan_cache_misses_total", float64(stats.PlanCacheMisses)},
	}
	for _, c := range checks {
		if got := metricValue(t, body, c.sample); got != c.want {
			t.Errorf("%s = %v, /v1/statsz says %v", c.sample, got, c.want)
		}
	}
	if hits := metricValue(t, body, `d3l_result_cache_hits_total`); hits != 2 {
		t.Errorf("cache hits = %v, want 2", hits)
	}

	// The ranked miss must have timed every engine stage exactly once,
	// and both server-side stages must cover all three lookups.
	for _, stage := range []string{"plan_prepare", "gather", "score", "rank_merge"} {
		sample := fmt.Sprintf(`d3l_query_stage_duration_seconds_count{stage=%q}`, stage)
		if got := metricValue(t, body, sample); got != 1 {
			t.Errorf("%s = %v, want 1 (one uncached ranked query)", sample, got)
		}
	}
	if got := metricValue(t, body, `d3l_query_stage_duration_seconds_count{stage="cache_lookup"}`); got < 3 {
		t.Errorf("cache_lookup count = %v, want >= 3", got)
	}
	if got := metricValue(t, body, `d3l_query_stage_duration_seconds_count{stage="admission_wait"}`); got != 1 {
		t.Errorf("admission_wait count = %v, want 1 (only the miss was admitted)", got)
	}
}

// TestMetricsSurviveSwap proves stage timings keep flowing after an
// engine swap: the observer is per-engine state and Swap must
// re-register it on the incoming engine.
func TestMetricsSurviveSwap(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	if err := srv.Swap(figure1Engine(t)); err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}); status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, body)
	}
	body := scrapeMetrics(t, srv)
	if got := metricValue(t, body, `d3l_query_stage_duration_seconds_count{stage="gather"}`); got != 1 {
		t.Errorf("gather count after swap = %v, want 1", got)
	}
}
