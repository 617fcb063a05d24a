package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/server"
)

// remoteWorld wires the full coordinator topology over a fresh lake:
// N shard replicas (each one serving stack over one shard engine), a
// Remote fanning out to them, and the replica servers kept addressable
// for fault injection.
type remoteWorld struct {
	lake     *d3l.Lake
	mono     *d3l.Engine
	replicas []*httptest.Server
	remote   *Remote
}

func buildRemoteWorld(t *testing.T, seed uint64, n int, cfg RemoteConfig) *remoteWorld {
	t.Helper()
	lake := testLake(t, seed, 10)
	mono := buildMono(t, lake)
	set, err := BuildSet(lake, n, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	remote, replicas := serveRemote(t, set, cfg)
	return &remoteWorld{lake: lake, mono: mono, replicas: replicas, remote: remote}
}

// serveRemote serves every shard of a set as its own HTTP replica and
// fronts them with a Remote — the `d3l coordinator` topology in one
// process.
func serveRemote(t *testing.T, set *Set, cfg RemoteConfig) (*Remote, []*httptest.Server) {
	t.Helper()
	urls := make([]string, set.NumShards())
	replicas := make([]*httptest.Server, set.NumShards())
	for i := range replicas {
		rs, err := server.New(set.Shard(i), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = httptest.NewServer(rs)
		t.Cleanup(replicas[i].Close)
		urls[i] = replicas[i].URL
	}
	remote, err := NewRemote(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote, replicas
}

// TestRemotePartialFailure pins the failure policy: a dead shard fails
// the query by default (fail-closed), WithPartialResults degrades
// instead, and an all-dead set fails even under the opt-in.
func TestRemotePartialFailure(t *testing.T) {
	w := buildRemoteWorld(t, 241, 3, RemoteConfig{
		ShardTimeout: 2 * time.Second,
		Retries:      -1, // no retries: a dead replica should fail fast
	})
	ctx := context.Background()
	target := w.lake.Table(0)

	healthy, err := w.remote.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded {
		t.Fatal("healthy query reports degraded")
	}

	w.replicas[1].Close()

	if _, err := w.remote.Query(ctx, target, d3l.WithK(5)); err == nil {
		t.Fatal("fail-closed: query over a dead shard must fail without WithPartialResults")
	}

	degraded, err := w.remote.Query(ctx, target, d3l.WithK(5), d3l.WithPartialResults())
	if err != nil {
		t.Fatalf("partial query: %v", err)
	}
	if !degraded.Degraded {
		t.Fatal("partial answer must be flagged degraded")
	}
	if len(degraded.Results) == 0 {
		t.Fatal("partial answer lost all results")
	}
	// The degraded ranking must still be internally consistent: every
	// surviving shard's tables, monolith order.
	for i := 1; i < len(degraded.Results); i++ {
		a, b := degraded.Results[i-1], degraded.Results[i]
		if a.Distance > b.Distance || (a.Distance == b.Distance && a.Name >= b.Name) {
			t.Fatalf("degraded ranking out of order at %d: %+v then %+v", i, a, b)
		}
	}

	w.replicas[0].Close()
	w.replicas[2].Close()
	if _, err := w.remote.Query(ctx, target, d3l.WithK(5), d3l.WithPartialResults()); err == nil {
		t.Fatal("all shards dead: even a partial query must fail")
	}
}

// TestCoordinatorPartialOverHTTP drives the opt-in through the full
// stack: ?partial=true flips the response's degraded flag, its absence
// fails closed, and the two variants never share a cache entry.
func TestCoordinatorPartialOverHTTP(t *testing.T) {
	w := buildRemoteWorld(t, 257, 3, RemoteConfig{
		ShardTimeout: 2 * time.Second,
		Retries:      -1,
	})
	// Caching is disabled so every request observes the live fan-out:
	// a cached pre-failure answer is correct and would otherwise
	// legitimately mask the dead replica.
	cs, err := server.New(w.remote, server.Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cs)
	t.Cleanup(coord.Close)
	target := tableToWire(w.lake.Table(0))

	status, body := postJSON(t, coord.URL+"/v1/query", server.QueryRequest{Table: target, K: kptr(5)})
	if status != http.StatusOK {
		t.Fatalf("healthy query: status %d: %s", status, body)
	}
	var healthy server.QueryResponse
	if err := json.Unmarshal(body, &healthy); err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded {
		t.Fatal("healthy answer flagged degraded")
	}

	w.replicas[2].Close()

	// Fail-closed without the opt-in. The handler maps the fan-out
	// failure to a 5xx, never a silent subset.
	status, body = postJSON(t, coord.URL+"/v1/query", server.QueryRequest{Table: target, K: kptr(5)})
	if status == http.StatusOK {
		t.Fatalf("dead shard without ?partial=true answered 200: %s", body)
	}

	status, body = postJSON(t, coord.URL+"/v1/query?partial=true", server.QueryRequest{Table: target, K: kptr(5)})
	if status != http.StatusOK {
		t.Fatalf("partial query: status %d: %s", status, body)
	}
	var part server.QueryResponse
	if err := json.Unmarshal(body, &part); err != nil {
		t.Fatal(err)
	}
	if !part.Degraded {
		t.Fatalf("partial answer not flagged degraded: %s", body)
	}
}

// TestMutationsPurgeShardedCache is the satellite regression test:
// placement-changing operations (Add/Update/Remove — whichever shard
// they land on) must purge the sharded serving stack's result cache,
// through both the HTTP mutation handlers and the watch-mode
// MutateEngine path.
func TestMutationsPurgeShardedCache(t *testing.T) {
	lake := testLake(t, 269, 10)
	set, err := BuildSet(lake, 3, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(set, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)

	src := lake.Table(0)
	target := tableToWire(src)
	ask := func() []byte {
		t.Helper()
		status, body := postJSON(t, hs.URL+"/v1/query", server.QueryRequest{Table: target, K: kptr(8)})
		if status != http.StatusOK {
			t.Fatalf("query: status %d: %s", status, body)
		}
		return body
	}

	before := ask()
	if cached := ask(); !bytes.Equal(before, cached) {
		t.Fatal("repeated query not served consistently")
	}

	// HTTP add: a clone of the target must enter the ranking, so a
	// stale cache is immediately visible as its absence.
	clone := tableToWire(cloneTable(t, src, "purge_probe"))
	status, body := postJSON(t, hs.URL+"/v1/tables", server.AddTableRequest{Table: clone})
	if status != http.StatusOK {
		t.Fatalf("add: status %d: %s", status, body)
	}
	afterAdd := ask()
	if bytes.Equal(before, afterAdd) {
		t.Fatal("add did not purge the sharded result cache")
	}
	if !strings.Contains(string(afterAdd), "purge_probe") {
		t.Fatalf("post-add answer does not rank the clone: %s", afterAdd)
	}

	// HTTP remove: the clone must leave the ranking again.
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/tables/purge_probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}
	afterRemove := ask()
	if strings.Contains(string(afterRemove), "purge_probe") {
		t.Fatal("remove did not purge the sharded result cache")
	}

	// Watch-mode path: cmd/d3l's watcher folds filesystem churn through
	// MutateEngine; a placement-routed Add there must purge too.
	if err := srv.MutateEngine(func(e server.Engine) error {
		_, err := e.Add(cloneTable(t, src, "purge_probe_watch"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	afterWatch := ask()
	if !strings.Contains(string(afterWatch), "purge_probe_watch") {
		t.Fatal("MutateEngine (watch path) did not purge the sharded result cache")
	}
}

// TestRemoteRetriesTransientFailures: a replica that 503s once per
// request sequence is healed by the read-path retry.
func TestRemoteRetriesTransientFailures(t *testing.T) {
	lake := testLake(t, 281, 8)
	mono := buildMono(t, lake)
	set, err := BuildSet(lake, 2, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var flake atomic.Int64
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		rs, err := server.New(set.Shard(i), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = rs
		if i == 1 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Fail every first probe attempt; health checks and
				// retries pass through.
				if strings.HasPrefix(r.URL.Path, "/v1/shard/") && flake.Add(1)%2 == 1 {
					http.Error(w, `{"error":{"code":"overloaded","message":"injected"}}`, http.StatusTooManyRequests)
					return
				}
				rs.ServeHTTP(w, r)
			})
		}
		replica := httptest.NewServer(h)
		t.Cleanup(replica.Close)
		urls[i] = replica.URL
	}
	remote, err := NewRemote(urls, RemoteConfig{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	target := lake.Table(0)
	want, err := mono.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatalf("retry did not heal transient failure: %v", err)
	}
	assertAnswersEqual(t, "retried", want, got)
}

// TestRemoteErrorMapping: replica error bodies surface as the
// library's sentinel errors through the coordinator backend.
func TestRemoteErrorMapping(t *testing.T) {
	w := buildRemoteWorld(t, 293, 2, RemoteConfig{})
	if _, err := w.remote.Update(cloneTable(t, w.lake.Table(0), "never_added")); !errors.Is(err, d3l.ErrTableNotFound) {
		t.Fatalf("update of unknown table: got %v, want ErrTableNotFound", err)
	}
	if _, err := w.remote.Add(cloneTable(t, w.lake.Table(0), w.lake.Table(0).Name)); !errors.Is(err, d3l.ErrDuplicateTable) {
		t.Fatalf("duplicate add: got %v, want ErrDuplicateTable", err)
	}
	if err := w.remote.Remove("never_added"); !errors.Is(err, d3l.ErrTableNotFound) {
		t.Fatalf("remove of unknown table: got %v, want ErrTableNotFound", err)
	}
}

// TestRemoteRefusesMalformedPartial: a replica whose gather answers are
// intact on the wire (the checksum holds) yet structurally wrong — a
// row aimed at target column -1, which unchecked indexes the
// coordinator's ECDF cells out of range and crashes it; or the JSON
// body of a stale build — is treated like any failed replica: its
// sibling answers, the result is the monolith's, and with no sibling
// the query fails with an error instead of a panic.
func TestRemoteRefusesMalformedPartial(t *testing.T) {
	lake := testLake(t, 307, 8)
	mono := buildMono(t, lake)
	set, err := BuildSet(lake, 1, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := server.New(set.Shard(0), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var mode atomic.Int64 // 0 = aim a row at column -1, 1 = answer JSON
	var mangled atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard/gather" {
			rs.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		rs.ServeHTTP(rec, r)
		partial, err := core.DecodeShardPartial(rec.Body.Bytes())
		if err != nil || len(partial.Tables) == 0 {
			t.Errorf("replica produced no usable partial: %v", err)
			return
		}
		mangled.Add(1)
		if mode.Load() == 1 {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(partial)
			return
		}
		partial.Tables[0].Rows[0].TargetColumn = -1
		w.Write(core.EncodeShardPartial(partial))
	}))
	t.Cleanup(bad.Close)
	good := httptest.NewServer(rs)
	t.Cleanup(good.Close)

	ctx := context.Background()
	target := lake.Table(0)
	want, err := mono.Query(ctx, target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := RemoteConfig{Retries: 1, RetryDelay: -1, ProbeInterval: -1}
	for m, label := range []string{"column -1", "json body"} {
		mode.Store(int64(m))
		mangled.Store(0)
		group, err := NewRemote([]string{bad.URL + "," + good.URL}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := group.Query(ctx, target, d3l.WithK(5))
		group.Close()
		if err != nil {
			t.Fatalf("%s: the sibling replica did not cover for the malformed answer: %v", label, err)
		}
		assertAnswersEqual(t, label, want, got)
		if mangled.Load() == 0 {
			t.Fatalf("%s: the malformed replica was never asked", label)
		}
		alone, err := NewRemote([]string{bad.URL}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = alone.Query(ctx, target, d3l.WithK(5))
		alone.Close()
		if err == nil || !strings.Contains(err.Error(), "undecodable answer") {
			t.Fatalf("%s: lone malformed replica: err = %v, want an undecodable-answer error", label, err)
		}
	}
}

// gatherLengths is a transport that notes the declared length of every
// gather answer passing through it.
type gatherLengths struct {
	mu      sync.Mutex
	lengths []int64
}

func (g *gatherLengths) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == "/v1/shard/gather" {
		g.mu.Lock()
		g.lengths = append(g.lengths, resp.ContentLength)
		g.mu.Unlock()
	}
	return resp, err
}

// TestGatherAnswersDeclareTheirLength: a replica has the whole partial
// in hand when it answers, and says how long it is — past the 2 kB up
// to which net/http would have worked it out alone — so the coordinator
// reads it into one buffer of that size. The answers are the monolith's
// through the sized read. The lake is larger than buildRemoteWorld's:
// partials ship counts, and its gathers fit in 2 kB.
func TestGatherAnswersDeclareTheirLength(t *testing.T) {
	spy := new(gatherLengths)
	lake := testLake(t, 211, 40)
	set, err := BuildSet(lake, 2, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := serveRemote(t, set, RemoteConfig{Client: &http.Client{Transport: spy}})
	w := &remoteWorld{lake: lake, mono: buildMono(t, lake), remote: remote}
	ctx := context.Background()
	for _, target := range liveTargets(w.lake, 3) {
		want, err := w.mono.Query(ctx, target, d3l.WithK(6))
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.remote.Query(ctx, target, d3l.WithK(6))
		if err != nil {
			t.Fatal(err)
		}
		assertAnswersEqual(t, "sized read "+target.Name, want, got)
	}
	longest := int64(0)
	for _, n := range spy.lengths {
		if n < 0 {
			t.Fatalf("a gather answer came chunked, with no declared length: %v", spy.lengths)
		}
		longest = max(longest, n)
	}
	if longest <= 2048 {
		t.Fatalf("fixture: the longest of %d gather answers is %d bytes; net/http declares those unasked", len(spy.lengths), longest)
	}
}

// TestReadBody covers the read itself: a declared length is read whole
// into a buffer of that size, a body that ends before its declared
// length is an error (the fault matrix's truncated-body and
// corrupt-gather-body rows reach the coordinator as this), and a length
// nobody declared, or one no partial could have, is not allocated for
// up front.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("d3l"), 4000)
	body := func(b []byte) io.ReadCloser { return io.NopCloser(bytes.NewReader(b)) }
	for _, c := range []struct {
		name     string
		declared int64
		sent     []byte
		ok       bool
	}{
		{"declared", int64(len(payload)), payload, true},
		{"empty", 0, nil, true},
		{"chunked", -1, payload, true},
		{"cut short", int64(len(payload)), payload[:len(payload)/2], false},
		{"absurd length", 1 << 40, payload, true},
	} {
		data, err := readBody(&http.Response{ContentLength: c.declared, Body: body(c.sent)})
		switch {
		case !c.ok:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", c.name, err)
			}
		case err != nil || !bytes.Equal(data, c.sent):
			t.Fatalf("%s: read %d bytes, err %v; sent %d", c.name, len(data), err, len(c.sent))
		}
	}
}
