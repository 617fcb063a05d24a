package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRankingBody holds both ranking routes to the error contract on
// arbitrary request bytes: every answer is a 200 with a JSON body or a
// 4xx in the uniform error body — never a 5xx. A panic anywhere on the
// request path fails too: the admission worker recovers it into a 500.
func FuzzRankingBody(f *testing.F) {
	target, err := json.Marshal(figure1TargetJSON())
	if err != nil {
		f.Fatal(err)
	}
	for _, rest := range []string{
		`,"k":3`,
		`,"k":0`,
		`,"k":2,"joins":true`,
		`,"k":0,"explainFor":"S2"`,
		`,"k":0,"explainFor":"no_such_table"`,
		`,"weights":[1,2]`,
		`,"weights":[-1,0,0,0,0]`,
		`,"weights":[0,0,0,0,0]`,
		`,"evidence":["vibes"]`,
		`,"evidence":["name","value","name"]`,
		`,"candidateBudget":99`,
		`,"k":1e300`,
		`,"k":4611686018427387904`,
		`,"candidateBudget":4611686018427387904`,
	} {
		f.Add([]byte(`{"table":` + string(target) + rest + `}`))
		f.Add([]byte(`{"tables":[` + string(target) + `]` + rest + `}`))
	}
	f.Add([]byte(`{"tables":[],"k":3}`))
	f.Add([]byte(`{"table":{"name":"t","columns":["c"],"rows":[["v","w"]]}}`))
	f.Add([]byte(`{"table": {`))
	f.Add([]byte{})

	srv, err := New(figure1Engine(f), Config{MaxBodyBytes: 2048})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/query", "/v1/batch"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch {
			case rec.Code == http.StatusOK:
				if !json.Valid(rec.Body.Bytes()) {
					t.Fatalf("%s: 200 with a body that is not JSON: %q", path, rec.Body.Bytes())
				}
			case rec.Code >= 400 && rec.Code < 500:
				var env ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
					t.Fatalf("%s: %d without the error body: %q", path, rec.Code, rec.Body.Bytes())
				}
			default:
				t.Fatalf("%s: status %d for %q: %s", path, rec.Code, body, rec.Body.Bytes())
			}
		}
	})
}
