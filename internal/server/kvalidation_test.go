package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestKValidationMatrix pins the k-validation contract of both ranking
// routes. /v1/batch requires a positive k; /v1/query is deliberately
// looser — absent k selects the default, and k 0 is an
// explanation-only query, a 400 only without explainFor. A negative k
// is the same 400 envelope on both, byte for byte.
func TestKValidationMatrix(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	target, err := json.Marshal(figure1TargetJSON())
	if err != nil {
		t.Fatal(err)
	}
	body := func(path, kField string) []byte {
		if path == "/v1/batch" {
			return []byte(fmt.Sprintf(`{"tables":[%s]%s}`, target, kField))
		}
		return []byte(fmt.Sprintf(`{"table":%s%s}`, target, kField))
	}
	type want struct {
		status int
		msg    string // the envelope message of a 400
	}
	cases := []struct {
		name   string
		kField string // appended verbatim to the JSON body
		batch  want
		query  want
	}{
		{"omitted k", ``,
			want{http.StatusBadRequest, "k is required and must be positive"},
			want{http.StatusOK, ""}},
		{"zero k", `,"k":0`,
			want{http.StatusBadRequest, "k must be positive, got 0"},
			want{http.StatusBadRequest, "k 0 asks for nothing; combine it with explainFor"}},
		{"negative k", `,"k":-3`,
			want{http.StatusBadRequest, "k must be positive, got -3"},
			want{http.StatusBadRequest, "k must be positive, got -3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bodies := map[string][]byte{}
			for ep, w := range map[string]want{"/v1/batch": tc.batch, "/v1/query": tc.query} {
				status, resp := doRequest(t, http.MethodPost, hs.URL+ep, body(ep, tc.kField))
				if status != w.status {
					t.Fatalf("%s: status %d, want %d: %s", ep, status, w.status, resp)
				}
				if status == http.StatusOK {
					continue
				}
				var env ErrorBody
				if err := json.Unmarshal(resp, &env); err != nil {
					t.Fatalf("%s: not the error envelope: %s", ep, resp)
				}
				if env.Error.Code != CodeBadRequest {
					t.Fatalf("%s: code %q, want %q", ep, env.Error.Code, CodeBadRequest)
				}
				if env.Error.Message != w.msg {
					t.Fatalf("%s: message %q, want %q", ep, env.Error.Message, w.msg)
				}
				bodies[ep] = resp
			}
			if tc.batch == tc.query && string(bodies["/v1/batch"]) != string(bodies["/v1/query"]) {
				t.Fatalf("envelopes diverge:\n%s\n%s", bodies["/v1/batch"], bodies["/v1/query"])
			}
		})
	}
}

// TestKValidationQueryEndpoint pins the case the matrix above leaves
// out: k 0 with an explanation target is a valid explanation-only
// query, answered with rows and no results section.
func TestKValidationQueryEndpoint(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	target, err := json.Marshal(figure1TargetJSON())
	if err != nil {
		t.Fatal(err)
	}
	status, resp := doRequest(t, http.MethodPost, hs.URL+"/v1/query",
		[]byte(fmt.Sprintf(`{"table":%s,"k":0,"explainFor":"S2"}`, target)))
	if status != http.StatusOK {
		t.Fatalf("k 0 with explainFor: status %d, want 200: %s", status, resp)
	}
	var q QueryResponse
	if err := json.Unmarshal(resp, &q); err != nil {
		t.Fatal(err)
	}
	if q.Results != nil || len(q.Explanation) == 0 {
		t.Fatalf("k 0 with explainFor: %d results, %d explanation rows; want none and some", len(q.Results), len(q.Explanation))
	}
}
