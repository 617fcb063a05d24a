package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"d3l/internal/core"
)

// serve sends one in-process request to srv.
func serve(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// checkErrorContract fails unless an answer is a 200 with a JSON body or
// a 4xx in the uniform error body.
func checkErrorContract(t *testing.T, what string, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	switch {
	case rec.Code == http.StatusOK:
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: 200 with a body that is not JSON: %q", what, rec.Body.Bytes())
		}
	case rec.Code >= 400 && rec.Code < 500:
		var env ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("%s: %d without the error body: %q", what, rec.Code, rec.Body.Bytes())
		}
	default:
		t.Fatalf("%s: status %d for %q: %s", what, rec.Code, body, rec.Body.Bytes())
	}
}

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
			checkErrorContract(t, path, serve(srv, http.MethodPost, path, body), body)
		}
	})
}

// FuzzShardBody holds the shard replica's query routes, POST
// /v1/shard/probe, /v1/shard/explain and /v1/shard/gather, to the error
// contract on arbitrary request bytes: never a panic, and a 4xx in the
// uniform error body unless the route answers. A probe or explanation
// answers a 200 with a JSON body, a gather a 200 whose body decodes as a
// shard partial, or a 500 when its depth directive disagrees with the
// query it comes with (a replica whose options drifted from its peers',
// which a coordinator retries on a sibling). Any other 5xx would have a
// coordinator retry the same bad request on a sibling replica.
func FuzzShardBody(f *testing.F) {
	target := figure1TargetJSON()
	spec := core.QuerySpec{K: 3}
	bodies := []any{
		ShardProbeRequest{Table: target, Spec: spec},
		ShardExplainRequest{Table: target, LakeTable: "S2", Spec: spec},
		ShardExplainRequest{Table: target, LakeTable: "no_such_table", Spec: spec},
		ShardProbeRequest{Table: TableJSON{Name: "t", Columns: []string{"c"}, Rows: [][]string{{"v", "w"}}}, Spec: spec},
	}
	for _, bad := range invalidShardSpecs() {
		bodies = append(bodies,
			ShardProbeRequest{Table: target, Spec: bad.spec},
			ShardExplainRequest{Table: target, LakeTable: "S2", Spec: bad.spec})
	}
	srv, err := New(figure1Engine(f), Config{MaxBodyBytes: 2048})
	if err != nil {
		f.Fatal(err)
	}
	probeBody, err := json.Marshal(ShardProbeRequest{Table: target, Spec: spec})
	if err != nil {
		f.Fatal(err)
	}
	var probe core.ShardProbe
	if err := json.Unmarshal(serve(srv, http.MethodPost, "/v1/shard/probe", probeBody).Body.Bytes(), &probe); err != nil {
		f.Fatal(err)
	}
	depths, err := core.MergeProbeDepths([]*core.ShardProbe{&probe})
	if err != nil {
		f.Fatal(err)
	}
	gather := ShardGatherRequest{Table: target, Spec: spec, Depths: *depths}
	disagrees := gather
	disagrees.Depths.Meta.K++ // a directive for another query than the spec's
	// The two gather seeds reach the route's answer and its 500.
	for _, seed := range []struct {
		req  ShardGatherRequest
		want int
	}{{gather, http.StatusOK}, {disagrees, http.StatusInternalServerError}} {
		body, err := json.Marshal(seed.req)
		if err != nil {
			f.Fatal(err)
		}
		if rec := serve(srv, http.MethodPost, "/v1/shard/gather", body); rec.Code != seed.want {
			f.Fatalf("gather seed: status %d, want %d: %s", rec.Code, seed.want, rec.Body.Bytes())
		}
		bodies = append(bodies, seed.req)
	}
	for _, req := range bodies {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"table": {`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/shard/probe", "/v1/shard/explain"} {
			checkErrorContract(t, path, serve(srv, http.MethodPost, path, body), body)
		}
		rec := serve(srv, http.MethodPost, "/v1/shard/gather", body)
		switch rec.Code {
		case http.StatusOK:
			if _, err := core.DecodeShardPartial(rec.Body.Bytes()); err != nil {
				t.Fatalf("gather: 200 with a body that is not a shard partial (%v) for %q", err, body)
			}
		case http.StatusInternalServerError:
			var env ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !strings.Contains(env.Error.Message, "depth directive") {
				t.Fatalf("gather: 500 other than a directive disagreement for %q: %s", body, rec.Body.Bytes())
			}
		default:
			checkErrorContract(t, "/v1/shard/gather", rec, body)
		}
	})
}

// FuzzTablesBody holds the table write routes, POST /v1/tables and PUT
// /v1/tables/{name}, to the same contract on arbitrary request bytes:
// a 200 with a JSON body or a typed 4xx, never a 5xx or a panic. The PUT
// addresses the table the body names, when it names one, so updates are
// reached. Every accepted write inserts into and deletes from the
// engine's forests, so after each input the server must still list its
// tables and answer a ranking query.
func FuzzTablesBody(f *testing.F) {
	target := figure1TargetJSON()
	copyS2 := TableJSON{Name: "S2", Columns: []string{"Practice", "City", "Postcode", "Payment"}, Rows: [][]string{
		{"Blackfriars", "Salford", "M3 6AF", "15530"},
		{"Bolton Medical", "Bolton", "BL3 6PY", "9120"},
	}}
	renamed := copyS2
	renamed.Name = "S2 copy" // every signature a copy of a known one
	tableID, attrID := 3, 40
	for _, req := range []any{
		AddTableRequest{Table: target},
		AddTableRequest{Table: copyS2},
		AddTableRequest{Table: renamed},
		AddTableRequest{Table: renamed, TableID: &tableID, AttrID: &attrID},
		AddTableRequest{Table: renamed, TableID: &tableID},
		UpdateTableRequest{Table: TableJSON{Name: "S2", Columns: []string{"City"}, Rows: [][]string{{"Leeds"}}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"table":{"name":"","columns":[]}}`))
	f.Add([]byte(`{"table":{"name":"t","columns":["c"],"rows":[["v","w"]]}}`))
	f.Add([]byte(`{"table":{"name":"  ","columns":["c"],"rows":[["v"]]}}`))
	f.Add([]byte(`{"table": {`))
	f.Add([]byte{})

	srv, err := New(figure1Engine(f), Config{MaxBodyBytes: 2048})
	if err != nil {
		f.Fatal(err)
	}
	query, err := json.Marshal(map[string]any{"table": target, "k": 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		name := "S2"
		var named UpdateTableRequest
		if json.Unmarshal(body, &named) == nil && named.Table.Name != "" {
			name = named.Table.Name
		}
		for _, c := range []struct{ method, path string }{
			{http.MethodPost, "/v1/tables"},
			{http.MethodPut, "/v1/tables/" + url.PathEscape(name)},
		} {
			checkErrorContract(t, c.method+" "+c.path, serve(srv, c.method, c.path, body), body)
		}
		for _, c := range []struct {
			method, path string
			body         []byte
		}{{http.MethodGet, "/v1/tables", nil}, {http.MethodPost, "/v1/query", query}} {
			if rec := serve(srv, c.method, c.path, c.body); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %s after %q: %d %s", c.method, c.path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
