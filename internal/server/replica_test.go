package server

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// replicatedEngine is a serving engine with replica groups: the
// monolith's answers, with the health reading the test sets.
type replicatedEngine struct {
	Engine
	health ReplicaHealth
}

func (r replicatedEngine) ReplicaHealth() ReplicaHealth { return r.health }

// TestReadyz pins readiness: a monolith is ready until it drains; a
// replicated backend is ready only while every shard group keeps a
// closed-breaker replica, and a 503 names each group that has none.
func TestReadyz(t *testing.T) {
	srv, hs := newTestServer(t, figure1Engine(t), Config{})
	var ready ReadyResponse
	if status := getJSON(t, hs.URL+"/v1/readyz", &ready); status != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("monolith: status %d %+v, want 200 ready", status, ready)
	}
	srv.BeginShutdown()
	var draining ReadyResponse
	if status := getJSON(t, hs.URL+"/v1/readyz", &draining); status != http.StatusServiceUnavailable || draining.Status != "draining" {
		t.Fatalf("draining: status %d %+v, want 503 draining", status, draining)
	}

	rep := func(shard int, url, state string) ReplicaStatus {
		return ReplicaStatus{Shard: shard, URL: url, State: state}
	}
	healthy := ReplicaHealth{Shards: 2, Replicas: []ReplicaStatus{
		rep(0, "a0", ReplicaStateClosed), rep(0, "b0", ReplicaStateOpen),
		rep(1, "a1", ReplicaStateHalfOpen), rep(1, "b1", ReplicaStateClosed),
	}}
	_, hs = newTestServer(t, replicatedEngine{figure1Engine(t), healthy}, Config{})
	ready = ReadyResponse{}
	if status := getJSON(t, hs.URL+"/v1/readyz", &ready); status != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("every group closed somewhere: status %d %+v, want 200 ready", status, ready)
	}

	shard1 := []ReplicaStatus{rep(1, "a1", ReplicaStateQuarantined), rep(1, "b1", ReplicaStateOpen)}
	degraded := ReplicaHealth{Shards: 2, Replicas: append([]ReplicaStatus{rep(0, "a0", ReplicaStateClosed)}, shard1...)}
	_, hs = newTestServer(t, replicatedEngine{figure1Engine(t), degraded}, Config{})
	var got ReadyResponse
	status := getJSON(t, hs.URL+"/v1/readyz", &got)
	want := ReadyResponse{Status: "degraded", Degraded: []ReadyShard{{Shard: 1, Replicas: shard1}}}
	if status != http.StatusServiceUnavailable || !reflect.DeepEqual(got, want) {
		t.Fatalf("shard 1 without a closed replica: status %d %+v, want 503 %+v", status, got, want)
	}
}

// TestReplicaBreakerGauge: the breaker-state gauge renders each state
// as the value its help text documents.
func TestReplicaBreakerGauge(t *testing.T) {
	health := ReplicaHealth{Shards: 1, Replicas: []ReplicaStatus{
		{URL: "c", State: ReplicaStateClosed},
		{URL: "h", State: ReplicaStateHalfOpen},
		{URL: "o", State: ReplicaStateOpen},
		{URL: "q", State: ReplicaStateQuarantined},
	}}
	_, hs := newTestServer(t, replicatedEngine{figure1Engine(t), health}, Config{})
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`d3l_replica_breaker_state{shard="0",replica="c"} 0`,
		`d3l_replica_breaker_state{shard="0",replica="h"} 1`,
		`d3l_replica_breaker_state{shard="0",replica="o"} 2`,
		`d3l_replica_breaker_state{shard="0",replica="q"} 3`,
	} {
		if !strings.Contains(string(body), series+"\n") {
			t.Errorf("missing series %q", series)
		}
	}
}
