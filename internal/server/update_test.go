package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// s1JSON returns S1's wire form with the Patients column rewritten —
// the one-changed-column update the delta counter contract is pinned
// to.
func s1PatientsChanged() TableJSON {
	return TableJSON{
		Name:    "S1",
		Columns: []string{"Practice Name", "Address", "City", "Postcode", "Patients"},
		Rows: [][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1300"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3601"},
			{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2255"},
		},
	}
}

func putJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return doRequest(t, http.MethodPut, url, body)
}

// TestUpdateTableEndpoint drives the whole PUT path end to end: the
// response reports the delta (exactly one of five columns re-profiled),
// the statsz counters move (mutations, updates, updateDeltaCols), the
// result cache is purged, and subsequent queries see the new contents.
func TestUpdateTableEndpoint(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})

	// Warm the result cache so the purge is observable.
	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}); code != http.StatusOK {
		t.Fatalf("warmup query status %d", code)
	}
	if s := getStats(t, hs.URL); s.CacheEntries == 0 {
		t.Fatal("warmup query did not populate the result cache")
	}
	fpBefore := getStats(t, hs.URL).EngineFingerprint

	code, body := putJSON(t, hs.URL+"/v1/tables/S1", UpdateTableRequest{Table: s1PatientsChanged()})
	if code != http.StatusOK {
		t.Fatalf("PUT status %d: %s", code, body)
	}
	var resp UpdateTableResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Updated != "S1" || resp.TableID != 0 {
		t.Fatalf("response = %+v, want Updated=S1 ID=0", resp)
	}
	if resp.Reprofiled != 1 || resp.Kept != 4 || resp.Added != 0 || resp.Dropped != 0 {
		t.Fatalf("delta = %+v, want exactly 1 of 5 columns re-profiled", resp)
	}

	s := getStats(t, hs.URL)
	if s.Mutations != 1 || s.Updates != 1 || s.UpdateDeltaCols != 1 {
		t.Fatalf("counters mutations=%d updates=%d updateDeltaCols=%d, want 1/1/1",
			s.Mutations, s.Updates, s.UpdateDeltaCols)
	}
	if s.CacheEntries != 0 {
		t.Fatal("update did not purge the result cache")
	}
	if s.EngineFingerprint == fpBefore {
		t.Fatal("update did not change the engine fingerprint")
	}
	if s.Tables != 3 {
		t.Fatalf("tables gauge = %d, want 3 (update must not add a slot)", s.Tables)
	}

	// A second update accumulates the delta counter.
	changed := s1PatientsChanged()
	changed.Rows[0][4] = "1400"
	if code, body := putJSON(t, hs.URL+"/v1/tables/S1", UpdateTableRequest{Table: changed}); code != http.StatusOK {
		t.Fatalf("second PUT status %d: %s", code, body)
	}
	if s := getStats(t, hs.URL); s.Updates != 2 || s.UpdateDeltaCols != 2 {
		t.Fatalf("accumulated counters updates=%d deltaCols=%d, want 2/2", s.Updates, s.UpdateDeltaCols)
	}
}

// TestUpdateTableErrorMatrix pins the PUT status matrix: 400 bad body
// or invalid name, 404 unknown table, 405 wrong method (Allow header
// included), 409 path/body mismatch — all in the uniform envelope.
func TestUpdateTableErrorMatrix(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	wire := func(tj TableJSON) []byte {
		b, err := json.Marshal(UpdateTableRequest{Table: tj})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small := func(name string) TableJSON {
		return TableJSON{Name: name, Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"unknown table", "PUT", "/v1/tables/nope", wire(small("nope")), http.StatusNotFound, CodeNotFound},
		{"path body mismatch", "PUT", "/v1/tables/S1", wire(small("S2")), http.StatusConflict, CodeConflict},
		{"malformed body", "PUT", "/v1/tables/S1", []byte(`{"table":`), http.StatusBadRequest, CodeBadRequest},
		{"invalid table shape", "PUT", "/v1/tables/S1", wire(TableJSON{Name: "S1"}), http.StatusBadRequest, CodeBadRequest},
		{"get not allowed", "GET", "/v1/tables/S1", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"post not allowed", "POST", "/v1/tables/S1", wire(small("S1")), http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := doRequest(t, c.method, hs.URL+c.path, c.body)
			if code != c.wantStatus {
				t.Fatalf("status %d, want %d (%s)", code, c.wantStatus, body)
			}
			if got := decodeEnvelope(t, body); got != c.wantCode {
				t.Fatalf("envelope code %q, want %q", got, c.wantCode)
			}
		})
	}

	// The 405 carries the Allow header per RFC 9110.
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/tables/S1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Allow"); got != "PUT, DELETE" {
		t.Fatalf("Allow header %q, want %q", got, "PUT, DELETE")
	}

	// Failed updates must not move the update counters.
	if s := getStats(t, hs.URL); s.Updates != 0 || s.UpdateDeltaCols != 0 || s.Mutations != 0 {
		t.Fatalf("error matrix moved mutation counters: %+v", s)
	}
}

// A table name that would escape the lake directory is rejected at the
// engine boundary and surfaces as a 400, on both add and update.
func TestMutationRejectsPathTraversalNames(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	evil := TableJSON{Name: "../evil", Columns: []string{"a"}, Rows: [][]string{{"1"}}}

	code, body := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: evil})
	if code != http.StatusBadRequest {
		t.Fatalf("add status %d: %s", code, body)
	}
	if got := decodeEnvelope(t, body); got != CodeBadRequest {
		t.Fatalf("add envelope code %q", got)
	}
	if s := getStats(t, hs.URL); s.Tables != 3 {
		t.Fatalf("rejected add changed the lake: %d tables", s.Tables)
	}
}

// MutateEngine is the watcher's path into a serving engine; it must
// count mutations, purge the cache, and refuse while draining.
func TestMutateEngine(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	if code, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Table: figure1TargetJSON(), K: kptr(2)}); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	if s := getStats(t, hs.URL); s.CacheEntries == 0 {
		t.Fatal("cache not warm")
	}
	err := srv.MutateEngine(func(e Engine) error {
		_, err := e.Add(mustTable(t, "extra", []string{"a"}, [][]string{{"1"}}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := getStats(t, hs.URL)
	if s.Mutations != 1 || s.CacheEntries != 0 || s.Tables != 4 {
		t.Fatalf("MutateEngine bookkeeping: %+v", s)
	}

	srv.BeginShutdown()
	err = srv.MutateEngine(func(e Engine) error { return nil })
	if err == nil {
		t.Fatal("MutateEngine must refuse while draining")
	}
}
