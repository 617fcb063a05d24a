package server

import (
	"math"
	"net/http"
	"strings"
	"testing"
)

// mustPlan resolves a QueryRequest or fails the test.
func mustPlan(t *testing.T, r QueryRequest) *queryPlan {
	t.Helper()
	p, err := r.plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return p
}

// TestQueryKeyNegativeZeroWeight pins the −0.0 canonicalisation: a
// negative-zero weight scores identically to +0.0 (IEEE 754 comparison
// treats them as equal everywhere the engine looks), but its bit
// pattern differs, and the cache key hashes weight bits. Without
// canonicalisation the two spellings split the result cache into two
// entries for one answer.
func TestQueryKeyNegativeZeroWeight(t *testing.T) {
	target := figure1TargetJSON()
	negZero := math.Copysign(0, -1)
	pos := mustPlan(t, QueryRequest{Table: target, Weights: []float64{1, 0, 1, 1, 1}})
	neg := mustPlan(t, QueryRequest{Table: target, Weights: []float64{1, negZero, 1, 1, 1}})
	if queryKey(1, 0, pos, false, &target) != queryKey(1, 0, neg, false, &target) {
		t.Fatal("-0.0 and +0.0 weights produced different cache keys")
	}
	if math.Signbit(neg.weights[1]) {
		t.Fatal("plan() kept the negative zero in the canonical weights")
	}
}

// TestQueryRequestRejectsNonFiniteWeights pins the decode-boundary
// rule: NaN and ±Inf weights are client errors, caught at plan() time
// before any admission slot or engine work. (Standard JSON cannot even
// spell them — see TestQueryWeightOverflowIs400 for the wire-level
// overflow path — but the request struct is also built directly by the
// CLI and tests, so the boundary check must not rely on the decoder.)
func TestQueryRequestRejectsNonFiniteWeights(t *testing.T) {
	target := figure1TargetJSON()
	for _, tc := range []struct {
		name string
		bad  float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		req := QueryRequest{Table: target, Weights: []float64{1, tc.bad, 1, 1, 1}}
		if _, err := req.plan(); err == nil {
			t.Errorf("%s weight accepted", tc.name)
		}
	}
}

// TestQueryWeightOverflowIs400: a JSON number too large for float64
// (the only way standard JSON can smuggle an infinity) is a 400 with
// the uniform envelope, not a 500.
func TestQueryWeightOverflowIs400(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	body := `{"table":{"name":"T","columns":["a"],"rows":[["x"]]},"weights":[1e999,1,1,1,1]}`
	status, resp := doRequest(t, http.MethodPost, hs.URL+"/v1/query", []byte(body))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %s", status, resp)
	}
	if !strings.Contains(string(resp), CodeBadRequest) {
		t.Fatalf("missing %q envelope: %s", CodeBadRequest, resp)
	}
}

// TestQueryIgnoresRetiredPlannerField: clients that still send the
// retired "planner" switch get the one pipeline's answer, not a 400 —
// the field is an unknown key like any other.
func TestQueryIgnoresRetiredPlannerField(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	table := `"table":{"name":"T","columns":["city"],"rows":[["Salford"],["Bolton"]]}`
	status, plain := doRequest(t, http.MethodPost, hs.URL+"/v1/query", []byte(`{`+table+`}`))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, plain)
	}
	status, stray := doRequest(t, http.MethodPost, hs.URL+"/v1/query", []byte(`{`+table+`,"planner":false}`))
	if status != http.StatusOK {
		t.Fatalf("status %d with a stray planner key: %s", status, stray)
	}
	if string(plain) != string(stray) {
		t.Fatalf("a stray planner key changed the answer:\n%s\n%s", plain, stray)
	}
}
