package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"d3l"
)

// TestServeQueryDefaultsMatchTopK: /v1/query with only a table is the
// library's top-k at the default k.
func TestServeQueryDefaultsMatchTopK(t *testing.T) {
	engine := figure1Engine(t)
	_, hs := newTestServer(t, engine, Config{})
	target := figure1TargetJSON()

	k := d3l.DefaultK
	tbl, err := target.toTable()
	if err != nil {
		t.Fatal(err)
	}
	ans, err := engine.Query(context.Background(), tbl, d3l.WithK(k))
	if err != nil {
		t.Fatal(err)
	}

	code, qBody := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target})
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, qBody)
	}
	var q QueryResponse
	if err := json.Unmarshal(qBody, &q); err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(ans.Results)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(q.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("query results diverged from the library's top-k:\n%s\n%s", a, b)
	}
	if q.Stats.K != k || q.Stats.CandidatePairs == 0 || q.Stats.TablesScored == 0 {
		t.Fatalf("stats = %+v", q.Stats)
	}
	if q.Joins != nil || q.Explanation != nil {
		t.Fatal("unrequested sections present")
	}
}

// TestServeQueryFullOptionSet: joins + explanation + evidence subset +
// weights + budget in one request, every section present.
func TestServeQueryFullOptionSet(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	target := figure1TargetJSON()
	k := 2
	w := d3l.DefaultWeights()
	code, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{
		Table:           target,
		K:               &k,
		Joins:           true,
		ExplainFor:      "S2",
		Weights:         w[:],
		CandidateBudget: 128,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Results) == 0 || len(q.Joins) == 0 || len(q.Explanation) == 0 {
		t.Fatalf("missing sections: results=%d joins=%d explanation=%d",
			len(q.Results), len(q.Joins), len(q.Explanation))
	}

	// Evidence subset: excluded evidence reads distance 1 everywhere.
	code, body = postJSON(t, hs.URL+"/v1/query", QueryRequest{
		Table:    target,
		Evidence: []string{"name", "value"},
	})
	if code != http.StatusOK {
		t.Fatalf("evidence query status %d: %s", code, body)
	}
	q = QueryResponse{}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	for _, r := range q.Results {
		for _, ev := range []d3l.Evidence{d3l.EvidenceFormat, d3l.EvidenceEmbedding, d3l.EvidenceDomain} {
			if r.Vector[ev] != 1 {
				t.Fatalf("%s: excluded evidence %v contributed distance %v", r.Name, ev, r.Vector[ev])
			}
		}
	}

	// Explanation-only: k 0 plus explainFor, no results section.
	zero := 0
	code, body = postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, K: &zero, ExplainFor: "S2"})
	if code != http.StatusOK {
		t.Fatalf("explain-only status %d: %s", code, body)
	}
	q = QueryResponse{}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Results != nil || len(q.Explanation) == 0 {
		t.Fatalf("explain-only: results=%v explanation=%d", q.Results, len(q.Explanation))
	}
}

// TestServeQueryValidation: every malformed option answers 400 with
// the envelope, before any admission slot is taken.
func TestServeQueryValidation(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	target := figure1TargetJSON()
	neg, zero := -1, 0
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"negative k", QueryRequest{Table: target, K: &neg}},
		{"k 0 without explain", QueryRequest{Table: target, K: &zero}},
		{"k 0 with joins", QueryRequest{Table: target, K: &zero, ExplainFor: "S2", Joins: true}},
		{"unknown evidence", QueryRequest{Table: target, Evidence: []string{"vibes"}}},
		{"negative weight", QueryRequest{Table: target, Weights: []float64{-1, 0, 0, 0, 0}}},
		{"too few weights", QueryRequest{Table: target, Weights: []float64{3}}},
		{"too many weights", QueryRequest{Table: target, Weights: []float64{1, 1, 1, 1, 1, 1}}},
		{"negative budget", QueryRequest{Table: target, CandidateBudget: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, hs.URL+"/v1/query", tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, body)
			}
			if got := decodeEnvelope(t, body); got != CodeBadRequest {
				t.Fatalf("envelope code %q, want %q", got, CodeBadRequest)
			}
		})
	}
	// Unknown lake table in explainFor is a 404, not a 400: the
	// request is well-formed, the name just misses.
	code, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, ExplainFor: "no_such_table"})
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", code, body)
	}
}

// TestServeQueryCacheCanonicalisation: requests that mean the same
// thing share a cache entry (absent vs explicit-default k, reordered
// and duplicated evidence lists), while any differing option misses.
func TestServeQueryCacheCanonicalisation(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	target := figure1TargetJSON()
	k := d3l.DefaultK

	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, K: &k}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	s := getStats(t, hs.URL)
	if s.CacheMisses != 1 || s.CacheHits != 1 {
		t.Fatalf("absent vs explicit default k: misses=%d hits=%d, want 1/1", s.CacheMisses, s.CacheHits)
	}

	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, Evidence: []string{"value", "name"}}); code != http.StatusOK {
		t.Fatal("evidence query failed")
	}
	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, Evidence: []string{"name", "value", "name"}}); code != http.StatusOK {
		t.Fatal("evidence query failed")
	}
	s = getStats(t, hs.URL)
	if s.CacheMisses != 2 || s.CacheHits != 2 {
		t.Fatalf("reordered evidence lists: misses=%d hits=%d, want 2/2", s.CacheMisses, s.CacheHits)
	}

	// A genuinely different option set misses.
	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: target, CandidateBudget: 99}); code != http.StatusOK {
		t.Fatal("budget query failed")
	}
	if s = getStats(t, hs.URL); s.CacheMisses != 3 {
		t.Fatalf("distinct budget shared a cache entry: misses=%d", s.CacheMisses)
	}
}

// TestServeListTables: GET /v1/tables reflects mutations immediately.
func TestServeListTables(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	var resp TablesResponse
	if code := getJSON(t, hs.URL+"/v1/tables", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Count != 3 || len(resp.Tables) != 3 || resp.Tables[0] != "S1" || resp.Tables[2] != "S3" {
		t.Fatalf("tables = %+v, want S1 S2 S3", resp)
	}

	extra := figure1TargetJSON()
	extra.Name = "A_first" // sorts before S1 — the listing is name-sorted
	if code, b := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: extra}); code != http.StatusOK {
		t.Fatalf("add: %d %s", code, b)
	}
	if code := getJSON(t, hs.URL+"/v1/tables", &resp); code != http.StatusOK {
		t.Fatal("list after add failed")
	}
	if resp.Count != 4 || resp.Tables[0] != "A_first" {
		t.Fatalf("tables after add = %+v", resp)
	}

	if code, b := doRequest(t, http.MethodDelete, hs.URL+"/v1/tables/A_first", nil); code != http.StatusOK {
		t.Fatalf("remove: %d %s", code, b)
	}
	if code := getJSON(t, hs.URL+"/v1/tables", &resp); code != http.StatusOK {
		t.Fatal("list after remove failed")
	}
	if resp.Count != 3 || resp.Tables[0] != "S1" {
		t.Fatalf("tables after remove = %+v", resp)
	}
}
