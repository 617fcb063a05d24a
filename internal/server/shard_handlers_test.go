package server

import (
	"bytes"
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
	var probe d3l.ShardProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	depths, err := d3l.MergeShardDepths([]*d3l.ShardProbe{&probe})
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
	partial, err := d3l.DecodeShardPartial(raw.Bytes())
	if err != nil {
		t.Fatalf("gather body does not decode: %v", err)
	}
	results, _, err := d3l.MergeShardPartials(depths, []*d3l.ShardPartial{partial})
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
// the target's profiles behind, the gather that follows reuses them,
// a gather with no probe before it (failover to a sibling replica)
// profiles for itself and answers the same bytes, distinct targets get
// distinct entries, the memo never outgrows its bound, and Swap drops
// it.
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
	var probe d3l.ShardProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	depths, err := d3l.MergeShardDepths([]*d3l.ShardProbe{&probe})
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

	// A malformed table is still a 400, memo or not.
	bad := target
	bad.Columns = nil
	if status, _ := postJSON(t, warmHS.URL+"/v1/shard/probe", ShardProbeRequest{Table: bad, Spec: spec}); status != http.StatusBadRequest {
		t.Fatalf("probe with no columns: status %d, want 400", status)
	}
}
