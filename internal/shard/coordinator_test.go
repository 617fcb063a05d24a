package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/faultproxy"
	"d3l/internal/server"
)

// The equivalence suites run once per shard client: a backend builds an
// n-shard coordinator over a lake — in-process (Set) or through one
// HTTP replica per shard (Remote) — and each suite holds it to the
// monolith.
type backend func(t *testing.T, lake *d3l.Lake, n int) server.Engine

func setBackend(t *testing.T, lake *d3l.Lake, n int) server.Engine { return buildSet(t, lake, n) }

func remoteBackend(t *testing.T, lake *d3l.Lake, n int) server.Engine {
	remote, _ := serveRemote(t, buildSet(t, lake, n), RemoteConfig{})
	return remote
}

func buildSet(t *testing.T, lake *d3l.Lake, n int) *Set {
	t.Helper()
	set, err := BuildSet(lake, n, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// shardCounts is the property-suite sweep: 1 (degenerate set must
// still match), 2, 3, and 7 (more shards than some queries have
// candidate tables, so empty partials merge too).
var shardCounts = []int{1, 2, 3, 7}

func TestSetMatchesMonolith(t *testing.T)    { testMatchesMonolith(t, setBackend) }
func TestRemoteMatchesMonolith(t *testing.T) { testMatchesMonolith(t, remoteBackend) }

func TestSetMatchesMonolithAfterMutations(t *testing.T) {
	testMutationsMatchMonolith(t, setBackend)
}

func TestRemoteMutationsMatchMonolith(t *testing.T) {
	testMutationsMatchMonolith(t, remoteBackend)
}

// testMatchesMonolith is the core equivalence property: for every
// shard count, Query / QueryBatch / explanations over the coordinator
// deep-equal the monolith over the union lake — including the committed
// distance ties between the tie_twin_* clones.
func testMatchesMonolith(t *testing.T, build backend) {
	lake := testLake(t, 71, 18)
	mono := buildMono(t, lake)
	targets := liveTargets(lake, 3)
	targets = append(targets, lake.ByName("tie_twin_a"))
	ctx := context.Background()

	// Prove the tie exists before asserting it is preserved: both
	// twins must rank with exactly equal distance for their own
	// content.
	twinAns, err := mono.Query(ctx, lake.ByName("tie_twin_a"), d3l.WithK(8))
	if err != nil {
		t.Fatal(err)
	}
	var twinDist []float64
	for _, r := range twinAns.Results {
		if strings.HasPrefix(r.Name, "tie_twin_") {
			twinDist = append(twinDist, r.Distance)
		}
	}
	if len(twinDist) != 2 || twinDist[0] != twinDist[1] {
		t.Fatalf("tie construction failed: twin distances %v", twinDist)
	}

	explainName := lake.Table(1).Name
	for _, n := range shardCounts {
		eng := build(t, lake, n)
		for ti, target := range targets {
			label := target.Name
			want, err := mono.Query(ctx, target, d3l.WithK(8))
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Query(ctx, target, d3l.WithK(8))
			if err != nil {
				t.Fatalf("%d shards, target %d: %v", n, ti, err)
			}
			assertAnswersEqual(t, label, want, got)

			// K>0 with an explanation riding along.
			want, err = mono.Query(ctx, target, d3l.WithK(5), d3l.WithExplainFor(explainName))
			if err != nil {
				t.Fatal(err)
			}
			got, err = eng.Query(ctx, target, d3l.WithK(5), d3l.WithExplainFor(explainName))
			if err != nil {
				t.Fatal(err)
			}
			assertAnswersEqual(t, label+"+explain", want, got)
		}

		// Explanation-only (K 0) queries.
		target := targets[0]
		want, err := mono.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor(explainName))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor(explainName))
		if err != nil {
			t.Fatal(err)
		}
		assertAnswersEqual(t, "explain-only", want, got)

		// Batch: all targets through one call.
		wantB, err := mono.QueryBatch(ctx, targets, d3l.WithK(6))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := eng.QueryBatch(ctx, targets, d3l.WithK(6))
		if err != nil {
			t.Fatal(err)
		}
		if len(wantB) != len(gotB) {
			t.Fatalf("%d shards: batch length %d vs %d", n, len(wantB), len(gotB))
		}
		for i := range wantB {
			assertAnswersEqual(t, "batch "+targets[i].Name, wantB[i], gotB[i])
		}
	}
}

// testMutationsMatchMonolith drives the coordinator and the monolith
// through the same Add / Update / Remove sequence through their public
// surfaces — the coordinator routing by placement to owner and mirrors,
// the monolith directly — and re-checks ids, update stats, rankings,
// explanations, batches, liveness, listings and slot counts.
func testMutationsMatchMonolith(t *testing.T, build backend) {
	lake := testLake(t, 137, 14)
	mono := buildMono(t, lake)
	eng := build(t, lake, 3)
	ctx := context.Background()

	// Add: a clone of table 2 under a fresh name.
	added := cloneTable(t, lake.Table(2), "post_build_add")
	wantID, err := mono.Add(added)
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := eng.Add(cloneTable(t, lake.Table(2), "post_build_add"))
	if err != nil {
		t.Fatal(err)
	}
	if wantID != gotID {
		t.Fatalf("add ids diverge: mono %d shards %d", wantID, gotID)
	}

	// Update: shrink table 1 in place so profiles genuinely change.
	victim := lake.Table(1)
	wantStats, err := mono.Update(subTable(t, victim, 5))
	if err != nil {
		t.Fatal(err)
	}
	gotStats, err := eng.Update(subTable(t, victim, 5))
	if err != nil {
		t.Fatal(err)
	}
	if wantStats != gotStats {
		t.Fatalf("update stats diverge: mono %+v shards %+v", wantStats, gotStats)
	}

	// Remove: tombstone table 3 on both sides.
	gone := lake.Table(3).Name
	if err := mono.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if err := eng.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if eng.HasTable(gone) {
		t.Fatalf("removed table %q still reported live", gone)
	}
	if !eng.HasTable(added.Name) {
		t.Fatalf("added table %q not reported live", added.Name)
	}

	targets := append(liveTargets(lake, 4), added)
	for _, target := range targets {
		want, err := mono.Query(ctx, target, d3l.WithK(8), d3l.WithExplainFor(victim.Name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(ctx, target, d3l.WithK(8), d3l.WithExplainFor(victim.Name))
		if err != nil {
			t.Fatal(err)
		}
		assertAnswersEqual(t, "post-mutation "+target.Name, want, got)
	}
	wantB, err := mono.QueryBatch(ctx, targets, d3l.WithK(6))
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := eng.QueryBatch(ctx, targets, d3l.WithK(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantB {
		assertAnswersEqual(t, "post-mutation batch "+targets[i].Name, wantB[i], gotB[i])
	}

	// Introspection parity after the full sequence.
	if mono.NumTables() != eng.NumTables() {
		t.Fatalf("table slots diverge: mono %d shards %d", mono.NumTables(), eng.NumTables())
	}
	if mono.NumAttributes() != eng.NumAttributes() {
		t.Fatalf("attribute slots diverge: mono %d shards %d", mono.NumAttributes(), eng.NumAttributes())
	}
	if monoNames, names := mono.Tables(), eng.Tables(); !reflect.DeepEqual(monoNames, names) {
		t.Fatalf("live listings diverge: mono %v shards %v", monoNames, names)
	}
}

// TestMutationsRacingQueries: the test goroutine cycles Add → Update →
// Remove through the coordinator while three others query it. The
// coordinator's lock makes each owner + mirror mutation atomic against
// a whole scatter-gather, so every answer is the monolith's answer at a
// state the mutation stream passed through while the query ran — before
// or after the mutation in flight — and no query fails. Both clients: a
// 2-shard Set, and a Remote over 2 shards × 2 replicas. Run under -race.
//
// Without the lock the hazard is a mutation landing between a query's
// probe and its gather: stop depths merged from the old lake then cut
// the new one's candidates. So every gather is held 3 ms after its
// probe, the candidate budget is small enough that one added table
// moves the stop depth, and each mutation waits for the queriers to
// answer in the state before it.
func TestMutationsRacingQueries(t *testing.T) {
	const latency = 3 * time.Millisecond
	t.Run("set", func(t *testing.T) {
		lake := testLake(t, 353, 10)
		set := buildSet(t, lake, 2)
		held := new(atomic.Int64)
		held.Store(int64(latency))
		eng := &coordinator[*d3l.ShardTarget, slowGather]{place: set.place, shards: []slowGather{
			{set.shards[0], held}, {set.shards[1], held},
		}}
		raceMutations(t, lake, buildMono(t, lake), eng)
	})
	t.Run("remote", func(t *testing.T) {
		w := buildFaultWorld(t, 353, 2, 2, faultCfg())
		for _, group := range w.proxies {
			for _, proxy := range group {
				proxy.SetRules(faultproxy.Rules{Path: "/v1/shard/gather", Latency: latency, LatencyProb: 1})
			}
		}
		raceMutations(t, w.lake, w.mono, w.remote)
	})
}

func raceMutations(t *testing.T, lake *d3l.Lake, mono *d3l.Engine, eng server.Engine) {
	ctx := context.Background()
	opts := []d3l.QueryOption{d3l.WithK(6), d3l.WithCandidateBudget(5)}
	src := lake.Table(0)
	targets := []*d3l.Table{src, lake.Table(2)}
	// stream is the mutation sequence; every call makes fresh tables, as
	// an engine keeps the table it is handed.
	stream := func() []func(server.Engine) error {
		var muts []func(server.Engine) error
		for c := 0; c < 5; c++ {
			name := fmt.Sprintf("racer_%d", c)
			added, updated := cloneTable(t, src, name), subTable(t, cloneTable(t, src, name), 5)
			muts = append(muts,
				func(e server.Engine) error { _, err := e.Add(added); return err },
				func(e server.Engine) error { _, err := e.Update(updated); return err },
				func(e server.Engine) error { return e.Remove(name) })
		}
		return muts
	}
	// want[s][ti] is the monolith's answer for targets[ti] once s
	// mutations have landed.
	monoMuts, muts := stream(), stream()
	want := make([][]*d3l.Answer, len(muts)+1)
	for s := range want {
		if s > 0 {
			if err := monoMuts[s-1](mono); err != nil {
				t.Fatal(err)
			}
		}
		for _, target := range targets {
			a, err := mono.Query(ctx, target, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want[s] = append(want[s], a)
		}
	}

	const queriers = 3
	var landed, answered, running atomic.Int64 // running: queriers not yet returned
	var stop atomic.Bool
	var wg sync.WaitGroup
	running.Store(queriers)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for i := g; !stop.Load(); i++ {
				ti := i % len(targets)
				lo := int(landed.Load())
				got, err := eng.Query(ctx, targets[ti], opts...)
				hi := min(int(landed.Load())+1, len(muts))
				if err != nil {
					t.Errorf("query of %s while mutation %d was in flight: %v", targets[ti].Name, lo+1, err)
					return
				}
				if !answersSomeState(want[lo:hi+1], ti, got) {
					t.Errorf("answer for %s matches no monolith state %d..%d", targets[ti].Name, lo, hi)
					return
				}
				answered.Add(1)
			}
		}()
	}
	// pace waits until the queriers have answered about once each since
	// the last mutation landed, or have all given up.
	pace := func() {
		for until := answered.Load() + queriers; answered.Load() < until && running.Load() > 0; {
			runtime.Gosched()
		}
	}
	pace()
	for s, m := range muts {
		if err := m(eng); err != nil {
			t.Errorf("mutation %d: %v", s+1, err)
			break
		}
		landed.Store(int64(s + 1))
		pace()
	}
	stop.Store(true)
	wg.Wait()
	for ti, target := range targets {
		got, err := eng.Query(ctx, target, opts...)
		if err != nil {
			t.Fatal(err)
		}
		assertAnswersEqual(t, "after the stream "+target.Name, want[len(muts)][ti], got)
	}
}

// answersSomeState reports whether got is, for everything the
// equivalence contract covers, the answer for targets[ti] at one of
// the given states.
func answersSomeState(states [][]*d3l.Answer, ti int, got *d3l.Answer) bool {
	for _, s := range states {
		want := s[ti]
		if reflect.DeepEqual(want.Results, got.Results) && !got.Degraded &&
			want.Stats.CandidatePairs == got.Stats.CandidatePairs && want.Stats.TablesScored == got.Stats.TablesScored {
			return true
		}
	}
	return false
}

// slowGather is an in-process shard whose gather first waits out a
// latency — for the client with no HTTP hop a faultproxy could delay —
// unless its query ends sooner.
type slowGather struct {
	localShard
	latency *atomic.Int64 // nanoseconds
}

func (s slowGather) gather(ctx context.Context, t *d3l.ShardTarget, spec core.QuerySpec, depths *d3l.ShardDepths) (*d3l.ShardPartial, error) {
	timer := time.NewTimer(time.Duration(s.latency.Load()))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.localShard.gather(ctx, t, spec, depths)
}

// TestPartialQueryPastItsDeadlineFails: with ?partial=true, a shard
// abandoned because the query's own deadline passed did not fail — the
// query did. Shard 1's gather is held 1.5 s past a 400 ms deadline; the
// query must fail with the deadline rather than answer degraded from
// shard 0 alone, through the serving stack that is a 503 with nothing
// cached, and once the latency is gone the same request answers whole.
// Both clients: in-process, and over HTTP with a faultproxy delaying
// /v1/shard/gather on shard 1's replica.
func TestPartialQueryPastItsDeadlineFails(t *testing.T) {
	const deadline, latency = 400 * time.Millisecond, 1500 * time.Millisecond
	lake := testLake(t, 331, 10)
	mono := buildMono(t, lake)
	target := lake.Table(0)
	want, err := mono.Query(context.Background(), target, d3l.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T) (eng server.Engine, setLatency func(time.Duration))
	}{
		{"set", func(t *testing.T) (server.Engine, func(time.Duration)) {
			set := buildSet(t, lake, 2)
			slow := new(atomic.Int64)
			eng := &coordinator[*d3l.ShardTarget, slowGather]{place: set.place, shards: []slowGather{
				{set.shards[0], new(atomic.Int64)}, {set.shards[1], slow},
			}}
			return eng, func(d time.Duration) { slow.Store(int64(d)) }
		}},
		{"remote", func(t *testing.T) (server.Engine, func(time.Duration)) {
			w := buildFaultWorld(t, 331, 2, 1, RemoteConfig{ProbeInterval: -1}) // the same lake
			return w.remote, func(d time.Duration) {
				w.proxies[1][0].SetRules(faultproxy.Rules{Path: "/v1/shard/gather", Latency: d, LatencyProb: 1})
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, setLatency := c.build(t)
			setLatency(latency)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			ans, err := eng.Query(ctx, target, d3l.WithK(5), d3l.WithPartialResults())
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("partial query past its deadline: answer %+v, err %v; want the deadline", ans, err)
			}

			srv, err := server.New(eng, server.Config{RequestTimeout: deadline})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			t.Cleanup(hs.Close)
			req := server.TopKRequest{Table: tableToWire(target), K: kptr(5)}
			if status, body := postJSON(t, hs.URL+"/v1/topk?partial=true", req); status != http.StatusServiceUnavailable {
				t.Fatalf("partial topk past its deadline: status %d, want 503: %s", status, body)
			}

			setLatency(0)
			status, body := postJSON(t, hs.URL+"/v1/topk?partial=true", req)
			if status != http.StatusOK {
				t.Fatalf("healed partial topk: status %d: %s", status, body)
			}
			var resp server.TopKResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Degraded || len(resp.Results) != len(want.Results) {
				t.Fatalf("healed partial topk answered degraded=%v with %d results, want the whole %d: %s",
					resp.Degraded, len(resp.Results), len(want.Results), body)
			}
			for i, r := range resp.Results {
				if r.Name != want.Results[i].Name || r.Distance != want.Results[i].Distance {
					t.Fatalf("healed partial topk result %d is %s %v, monolith %s %v",
						i, r.Name, r.Distance, want.Results[i].Name, want.Results[i].Distance)
				}
			}
		})
	}
}
