package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"d3l"
	"d3l/internal/core"
)

// TestShardGatherAnswersBinary pins the gather wire: a 200 is the
// binary partial under its own content type and decodes to something
// the merge accepts; an error is still the JSON envelope.
func TestShardGatherAnswersBinary(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	spec := core.QuerySpec{K: 3}
	target := figure1TargetJSON()

	status, body := postJSON(t, hs.URL+"/v1/shard/probe", ShardProbeRequest{Table: target, Spec: spec})
	if status != http.StatusOK {
		t.Fatalf("probe: status %d: %s", status, body)
	}
	var probe core.ShardProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	depths, err := core.MergeProbeDepths([]*core.ShardProbe{&probe})
	if err != nil {
		t.Fatal(err)
	}

	// The gather is posted by hand: the content type is under test.
	reqBody, _ := json.Marshal(ShardGatherRequest{Table: target, Spec: spec, Depths: *depths})
	resp, err := http.Post(hs.URL+"/v1/shard/gather", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != shardPartialContentType {
		t.Fatalf("gather: status %d content type %q, want 200 %q", resp.StatusCode, ct, shardPartialContentType)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	partial, err := core.DecodeShardPartial(raw.Bytes())
	if err != nil {
		t.Fatalf("gather body does not decode: %v", err)
	}
	results, _, err := core.MergeShardPartials(depths, []*core.ShardPartial{partial})
	if err != nil || len(results) == 0 {
		t.Fatalf("merge: %d results, err %v", len(results), err)
	}

	// A gather the engine refuses (the directive is for another query
	// shape) answers the JSON error envelope, not a binary body.
	depths.Meta.K++
	status, body = postJSON(t, hs.URL+"/v1/shard/gather", ShardGatherRequest{Table: target, Spec: spec, Depths: *depths})
	var eb ErrorBody
	if status == http.StatusOK || json.Unmarshal(body, &eb) != nil || eb.Error.Code == "" {
		t.Fatalf("mismatched gather: status %d body %q, want a JSON error envelope", status, body)
	}
}

// TestShardTargetMemo pins the prepared-target memo: the probe leaves
// the prepared target behind, the gather that follows reuses it, a
// gather with no probe before it (failover to a sibling replica)
// prepares for itself and answers the same bytes, distinct targets get
// distinct entries, the memo never outgrows its bound, Swap drops it,
// and an explain prepares into it for the probe that follows.
func TestShardTargetMemo(t *testing.T) {
	cfg := Config{MaxConcurrent: 2}
	warm, warmHS := newTestServer(t, figure1Engine(t), cfg)
	spec := core.QuerySpec{K: 3}
	target := figure1TargetJSON()

	if n := warm.shardTargets.len(); n != 0 {
		t.Fatalf("fresh server holds %d prepared targets", n)
	}
	status, body := postJSON(t, warmHS.URL+"/v1/shard/probe", ShardProbeRequest{Table: target, Spec: spec})
	if status != http.StatusOK {
		t.Fatalf("probe: status %d: %s", status, body)
	}
	if n := warm.shardTargets.len(); n != 1 {
		t.Fatalf("after one probe the memo holds %d targets, want 1", n)
	}
	var probe core.ShardProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	depths, err := core.MergeProbeDepths([]*core.ShardProbe{&probe})
	if err != nil {
		t.Fatal(err)
	}
	gather := ShardGatherRequest{Table: target, Spec: spec, Depths: *depths}
	status, hit := postJSON(t, warmHS.URL+"/v1/shard/gather", gather)
	if status != http.StatusOK {
		t.Fatalf("gather after probe: status %d: %s", status, hit)
	}
	if n := warm.shardTargets.len(); n != 1 {
		t.Fatalf("a gather hit changed the memo to %d targets", n)
	}

	// The same gather on a replica that never saw the probe.
	cold, coldHS := newTestServer(t, figure1Engine(t), cfg)
	status, miss := postJSON(t, coldHS.URL+"/v1/shard/gather", gather)
	if status != http.StatusOK {
		t.Fatalf("gather without probe: status %d: %s", status, miss)
	}
	if !bytes.Equal(hit, miss) {
		t.Fatal("gather answers differ between a memo hit and a memo miss")
	}
	if n := cold.shardTargets.len(); n != 1 {
		t.Fatalf("a gather miss left %d targets in the memo, want 1", n)
	}

	// Bounded: many distinct targets never exceed the configured size.
	bound := shardTargetMemoEntries(cfg.MaxConcurrent)
	for i := 0; i < 3*bound; i++ {
		other := target
		other.Rows = append([][]string{{"P", "1 High St", "Leeds", "LS1 1AA", string(rune('a' + i))}}, target.Rows...)
		if status, body := postJSON(t, warmHS.URL+"/v1/shard/probe", ShardProbeRequest{Table: other, Spec: spec}); status != http.StatusOK {
			t.Fatalf("probe %d: status %d: %s", i, status, body)
		}
	}
	if n := warm.shardTargets.len(); n != bound {
		t.Fatalf("memo holds %d targets after %d distinct probes, want its bound %d", n, 3*bound, bound)
	}

	// Swap: profiles belong to one engine's options.
	if err := warm.Swap(figure1Engine(t)); err != nil {
		t.Fatal(err)
	}
	if n := warm.shardTargets.len(); n != 0 {
		t.Fatalf("Swap left %d prepared targets behind", n)
	}
	status, after := postJSON(t, warmHS.URL+"/v1/shard/gather", gather)
	if status != http.StatusOK || !bytes.Equal(after, hit) {
		t.Fatalf("gather after Swap: status %d, same bytes %v", status, bytes.Equal(after, hit))
	}

	// One prepared target serves explain then probe: the explain leaves
	// it in the memo and the probe of the same table finds it there, and
	// both answer the bytes they answer without the memo.
	explained, explainedHS := newTestServer(t, figure1Engine(t), cfg)
	explain := ShardExplainRequest{Table: target, LakeTable: "S1", Spec: spec}
	status, rows := postJSON(t, explainedHS.URL+"/v1/shard/explain", explain)
	if status != http.StatusOK {
		t.Fatalf("explain: status %d: %s", status, rows)
	}
	if n := explained.shardTargets.len(); n != 1 {
		t.Fatalf("after one explain the memo holds %d targets, want 1", n)
	}
	status, probed := postJSON(t, explainedHS.URL+"/v1/shard/probe", ShardProbeRequest{Table: target, Spec: spec})
	if status != http.StatusOK || !bytes.Equal(probed, body) {
		t.Fatalf("probe after explain: status %d, same bytes as a probe alone %v", status, bytes.Equal(probed, body))
	}
	if n := explained.shardTargets.len(); n != 1 {
		t.Fatalf("the probe after an explain changed the memo to %d targets, want 1", n)
	}
	if n := cold.shardTargets.len(); n != 1 {
		t.Fatalf("fixture: the cold replica's memo holds %d targets, want 1", n)
	}
	status, hitRows := postJSON(t, coldHS.URL+"/v1/shard/explain", explain)
	if status != http.StatusOK || !bytes.Equal(hitRows, rows) {
		t.Fatalf("explain on a memo hit: status %d, same bytes as on a miss %v", status, bytes.Equal(hitRows, rows))
	}

	// A malformed table is still a 400, memo or not.
	bad := target
	bad.Columns = nil
	if status, _ := postJSON(t, warmHS.URL+"/v1/shard/probe", ShardProbeRequest{Table: bad, Spec: spec}); status != http.StatusBadRequest {
		t.Fatalf("probe with no columns: status %d, want 400", status)
	}
}

// invalidShardSpec is a spec the engine refuses, and whether an
// explanation, which ignores K, refuses it too.
type invalidShardSpec struct {
	name           string
	spec           core.QuerySpec
	explainRefuses bool
}

// invalidShardSpecs are the specs the engine refuses, one per rule.
func invalidShardSpecs() []invalidShardSpec {
	var allOff [core.NumEvidence]bool
	for i := range allOff {
		allOff[i] = true
	}
	return []invalidShardSpec{
		{"K 0", core.QuerySpec{K: 0}, false},
		{"K -1", core.QuerySpec{K: -1}, false},
		{"CandidateBudget -1", core.QuerySpec{K: 3, CandidateBudget: -1}, true},
		{"all evidence disabled", core.QuerySpec{K: 3, Disabled: &allOff}, true},
	}
}

// TestShardRoutesRefuseInvalidSpecs: a spec the engine refuses is the
// client's error, a 400 bad_request, on the probe and the explain
// route alike — not a 500, which a coordinator would count against the
// replica's breaker and retry on a sibling. An explanation ignores K,
// so explain answers a K of 0 or -1.
func TestShardRoutesRefuseInvalidSpecs(t *testing.T) {
	_, hs := newTestServer(t, figure1Engine(t), Config{})
	target := figure1TargetJSON()
	for _, c := range invalidShardSpecs() {
		status, body := postJSON(t, hs.URL+"/v1/shard/probe", ShardProbeRequest{Table: target, Spec: c.spec})
		if status != http.StatusBadRequest || decodeEnvelope(t, body) != CodeBadRequest {
			t.Errorf("probe with %s: status %d body %s, want 400 %s", c.name, status, body, CodeBadRequest)
		}
		status, body = postJSON(t, hs.URL+"/v1/shard/explain", ShardExplainRequest{Table: target, LakeTable: "S2", Spec: c.spec})
		switch {
		case !c.explainRefuses && status != http.StatusOK:
			t.Errorf("explain with %s: status %d body %s, want 200", c.name, status, body)
		case c.explainRefuses && (status != http.StatusBadRequest || decodeEnvelope(t, body) != CodeBadRequest):
			t.Errorf("explain with %s: status %d body %s, want 400 %s", c.name, status, body, CodeBadRequest)
		}
	}
}

// servingOnly hides every method of the engine but the serving
// interface, as a shard set does: it cannot act as a shard replica.
type servingOnly struct{ Engine }

// TestWritesAtAssignedIDs pins the ids a coordinator sends with a write
// to a shard replica: an add lands at its tableID and attrID, filling
// the ids before them with dead slots, an update's fresh columns land
// at its attrID, a plain write goes on from there, and an engine that
// assigns ids itself refuses them with a 400. The mirror route is gone.
func TestWritesAtAssignedIDs(t *testing.T) {
	eng := figure1Engine(t)
	_, hs := newTestServer(t, eng, Config{})
	tables, attrs := eng.NumTables(), eng.NumAttributes()

	ghost := figure1TargetJSON()
	ghost.Name = "ghost"
	tableID, attrID := tables+2, attrs+3
	status, body := postJSON(t, hs.URL+"/v1/tables", AddTableRequest{Table: ghost, TableID: &tableID, AttrID: &attrID})
	var added AddTableResponse
	if status != http.StatusOK || json.Unmarshal(body, &added) != nil || added.ID != tableID {
		t.Fatalf("add at assigned ids: status %d body %s, want 200 with id %d", status, body, tableID)
	}
	if n, a := eng.NumTables(), eng.NumAttributes(); n != tableID+1 || a != attrID+len(ghost.Columns) {
		t.Fatalf("add at assigned ids left %d table and %d attribute slots, want %d and %d", n, a, tableID+1, attrID+len(ghost.Columns))
	}
	if names := eng.Tables(); len(names) != tables+1 {
		t.Fatalf("fill slots listed as tables: %v", names)
	}
	next, err := eng.Add(mustTable(t, "S4", []string{"Practice"}, [][]string{{"Blackfriars"}}))
	if err != nil || next != tableID+1 {
		t.Fatalf("the Add after an assigned add got id %d (err %v), want %d", next, err, tableID+1)
	}

	ghost.Rows = ghost.Rows[:1]
	attrID = eng.NumAttributes() + 4
	status, body = doRequest(t, http.MethodPut, hs.URL+"/v1/tables/ghost", mustJSON(t, UpdateTableRequest{Table: ghost, AttrID: &attrID}))
	var updated UpdateTableResponse
	if status != http.StatusOK || json.Unmarshal(body, &updated) != nil || updated.TableID != tableID {
		t.Fatalf("update at an assigned id: status %d body %s, want 200 with id %d", status, body, tableID)
	}
	if a := eng.NumAttributes(); a != attrID+updated.Reprofiled {
		t.Fatalf("update at an assigned id left %d attribute slots, want %d", a, attrID+updated.Reprofiled)
	}

	if status, body := postJSON(t, hs.URL+"/v1/shard/mirror", struct{}{}); status != http.StatusNotFound {
		t.Fatalf("the mirror route: status %d body %s, want 404", status, body)
	}

	_, plain := newTestServer(t, servingOnly{figure1Engine(t)}, Config{})
	ghost.Name = "ghost2"
	tableID, attrID = 3, 100
	status, body = postJSON(t, plain.URL+"/v1/tables", AddTableRequest{Table: ghost, TableID: &tableID, AttrID: &attrID})
	if status != http.StatusBadRequest || decodeEnvelope(t, body) != CodeBadRequest {
		t.Fatalf("assigned ids on an engine that assigns its own: status %d body %s, want 400", status, body)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardExplainEqualsQuery: the rows a replica explains for the
// coordinator are the monolith's explanation-only query, and the
// errors keep their statuses.
func TestShardExplainEqualsQuery(t *testing.T) {
	eng := figure1Engine(t)
	_, hs := newTestServer(t, eng, Config{})
	url := hs.URL + "/v1/shard/explain"
	tj := figure1TargetJSON()
	target, err := tj.toTable()
	if err != nil {
		t.Fatal(err)
	}
	sq, err := d3l.ResolveShardQuery(d3l.WithK(0), d3l.WithExplainFor("S1"))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Query(context.Background(), target, d3l.WithK(0), d3l.WithExplainFor("S1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Explanation) == 0 {
		t.Fatal("fixture: the query explains no pairs")
	}
	want, err := json.Marshal(ans.Explanation)
	if err != nil {
		t.Fatal(err)
	}

	status, body := postJSON(t, url, ShardExplainRequest{Table: tj, LakeTable: "S1", Spec: sq.Spec})
	var resp ShardExplainResponse
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
		t.Fatalf("explain: status %d body %s", status, body)
	}
	if got, _ := json.Marshal(resp.Rows); !bytes.Equal(got, want) {
		t.Fatalf("shard explain rows\n%s\ndiffer from the query's\n%s", got, want)
	}

	if status, body := postJSON(t, url, ShardExplainRequest{Table: tj, LakeTable: "nope", Spec: sq.Spec}); status != http.StatusNotFound {
		t.Fatalf("unknown lake table: status %d body %s, want 404", status, body)
	}
	bad := tj
	bad.Columns = nil
	if status, body := postJSON(t, url, ShardExplainRequest{Table: bad, LakeTable: "S1", Spec: sq.Spec}); status != http.StatusBadRequest {
		t.Fatalf("malformed table: status %d body %s, want 400", status, body)
	}
}
