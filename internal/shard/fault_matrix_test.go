package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"d3l"
	"d3l/internal/faultproxy"
	"d3l/internal/server"
)

// The fault matrix: a coordinator over replica groups must keep its
// answers byte-identical to the monolith through every transient
// failure mode a replica can produce — 5xx bursts, connection resets,
// truncated bodies, blackholes, kills, flaps, tail latency — as long
// as at least one replica per shard survives. Every scenario here
// runs the same assertion: remote answers == monolith answers, zero
// client-visible errors. The faults are injected by seed-determinis-
// tic faultproxies sitting between the coordinator and each replica.

// faultWorld is the chaos topology: shards × replicas, every replica
// an independent engine (so mutations genuinely fan out) behind its
// own fault proxy.
type faultWorld struct {
	lake    *d3l.Lake
	mono    *d3l.Engine
	proxies [][]*faultproxy.Proxy // [shard][replica]
	fronts  [][]*httptest.Server  // [shard][replica] proxy listeners
	urls    []string              // [shard] the comma-joined group
	remote  *Remote
}

func buildFaultWorld(t *testing.T, seed uint64, shards, replicas int, cfg RemoteConfig) *faultWorld {
	t.Helper()
	lake := testLake(t, seed, 10)
	w := &faultWorld{
		lake:    lake,
		mono:    buildMono(t, lake),
		proxies: make([][]*faultproxy.Proxy, shards),
		fronts:  make([][]*httptest.Server, shards),
	}
	urls := make([]string, shards)
	for ri := 0; ri < replicas; ri++ {
		// Each replica column is an independently built (but
		// deterministic, hence identical) engine set: replica engines
		// share nothing, exactly like separate `d3l serve` processes.
		set, err := BuildSet(lake, shards, d3l.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < shards; si++ {
			rs, err := server.New(set.Shard(si), server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			backend := httptest.NewServer(rs)
			t.Cleanup(backend.Close)
			proxy, err := faultproxy.New(backend.URL, seed+uint64(si*replicas+ri))
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(proxy)
			t.Cleanup(front.Close)
			w.proxies[si] = append(w.proxies[si], proxy)
			w.fronts[si] = append(w.fronts[si], front)
			if urls[si] == "" {
				urls[si] = front.URL
			} else {
				urls[si] += "," + front.URL
			}
		}
	}
	w.urls = urls
	w.reload(t, cfg)
	return w
}

// reload replaces the world's coordinator with a fresh one over the
// same replicas and has it learn its write ids, as POST /v1/reload on
// `d3l coordinator` does.
func (w *faultWorld) reload(t *testing.T, cfg RemoteConfig) {
	t.Helper()
	if w.remote != nil {
		w.remote.Close()
	}
	remote, err := NewRemote(w.urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.LearnIDs(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	w.remote = remote
}

// faultCfg is the matrix's aggressive-but-deterministic tuning: fast
// retries, fast breakers, no background prober unless a scenario
// turns it on.
func faultCfg() RemoteConfig {
	return RemoteConfig{
		ShardTimeout:  2 * time.Second,
		Retries:       2,
		RetryDelay:    2 * time.Millisecond,
		ProbeInterval: -1,
		Breaker:       BreakerConfig{Backoff: 20 * time.Millisecond},
		Seed:          7,
	}
}

// assertExact runs a query spread against both engines and requires
// identical answers with no error — the matrix's core assertion.
func assertExact(t *testing.T, w *faultWorld, label string) {
	t.Helper()
	ctx := context.Background()
	for _, target := range liveTargets(w.lake, 5) {
		want, err := w.mono.Query(ctx, target, d3l.WithK(6))
		if err != nil {
			t.Fatalf("%s: monolith: %v", label, err)
		}
		got, err := w.remote.Query(ctx, target, d3l.WithK(6))
		if err != nil {
			t.Fatalf("%s: remote %s: %v", label, target.Name, err)
		}
		assertAnswersEqual(t, label+" "+target.Name, want, got)
	}
}

// primaryState reads one replica's breaker state from the health
// report.
func replicaState(w *faultWorld, shard, replica int) string {
	h := w.remote.ReplicaHealth()
	url := w.fronts[shard][replica].URL
	for _, rs := range h.Replicas {
		if rs.Shard == shard && rs.URL == url {
			return rs.State
		}
	}
	return "missing"
}

// TestFaultMatrixTransientFaults: 5xx bursts, connection resets,
// truncated bodies and well-formed 200s around a damaged gather body
// (a flipped bit or a missing half, which only the partial's checksum
// and decoder can catch) on the preferred replica of every shard —
// failover to the sibling keeps every answer exact with zero
// client-visible errors.
func TestFaultMatrixTransientFaults(t *testing.T) {
	kinds := []struct {
		name  string
		rules faultproxy.Rules
	}{
		{"5xx-burst", faultproxy.Rules{ErrorProb: 1}},
		{"connection-reset", faultproxy.Rules{ResetProb: 1}},
		{"truncated-body", faultproxy.Rules{TruncateProb: 1}},
		{"corrupt-gather-body", faultproxy.Rules{CorruptProb: 1, Path: "/v1/shard/gather"}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			w := buildFaultWorld(t, 1307, 2, 2, faultCfg())
			before := w.remote.ReplicaHealth().Failovers
			// Replica 0 is the pick order's preference while all
			// breakers are closed, so faulting it forces real
			// failovers rather than idle fault rules.
			for si := range w.proxies {
				w.proxies[si][0].SetRules(kind.rules)
			}
			assertExact(t, w, kind.name)
			if after := w.remote.ReplicaHealth().Failovers; after <= before {
				t.Fatalf("%s: no failovers recorded (%d -> %d) — the faults were never hit", kind.name, before, after)
			}
			if kind.rules.CorruptProb > 0 {
				for si := range w.proxies {
					if st := w.proxies[si][0].Stats(); st.Corrupted == 0 {
						t.Fatalf("%s: shard %d: no gather body was corrupted: %+v", kind.name, si, st)
					}
				}
			}
			for si := range w.proxies {
				w.proxies[si][0].SetRules(faultproxy.Rules{})
			}
			assertExact(t, w, kind.name+"-recovered")
		})
	}
}

// TestFaultMatrixGatherOnOtherReplica splits one query across a
// group: the probe lands on the preferred replica, its gather is
// refused there and fails over to the sibling — which never saw the
// probe, so its prepared-target memo misses and it profiles the target
// itself. The answer is the monolith's all the same.
func TestFaultMatrixGatherOnOtherReplica(t *testing.T) {
	w := buildFaultWorld(t, 419, 2, 2, faultCfg())
	for si := range w.proxies {
		w.proxies[si][0].SetRules(faultproxy.Rules{ErrorProb: 1, Path: "/v1/shard/gather"})
	}
	forwarded := func(si, ri int) uint64 { return w.proxies[si][ri].Stats().Forwarded }
	before := [][2]uint64{{forwarded(0, 0), forwarded(0, 1)}, {forwarded(1, 0), forwarded(1, 1)}}
	ctx := context.Background()
	target := liveTargets(w.lake, 5)[0]
	want, err := w.mono.Query(ctx, target, d3l.WithK(6))
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.remote.Query(ctx, target, d3l.WithK(6))
	if err != nil {
		t.Fatal(err)
	}
	assertAnswersEqual(t, "split query", want, got)
	for si := range w.proxies {
		// Preferred replica: the probe went through, the gather did not.
		// Sibling: exactly one request, the failed-over gather.
		probes, refused := forwarded(si, 0)-before[si][0], w.proxies[si][0].Stats().Errors
		gathers := forwarded(si, 1) - before[si][1]
		if probes != 1 || refused != 1 || gathers != 1 {
			t.Fatalf("shard %d: the query did not split across the group: preferred replica forwarded %d and refused %d, sibling forwarded %d",
				si, probes, refused, gathers)
		}
	}
}

// TestFaultMatrixKillMidStream kills one replica per shard (listener
// down, connection refused) partway through a query stream: answers
// before, during and after the kill stay exact, and the killed
// replicas' breakers trip open. The trip comes from the prober, not
// traffic: after the first failed query the picker deprioritizes the
// dead replica, so only active probes of closed-but-suspect replicas
// can accumulate the remaining failures.
func TestFaultMatrixKillMidStream(t *testing.T) {
	cfg := faultCfg()
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.Breaker = BreakerConfig{ConsecutiveFailures: 3, Backoff: 10 * time.Millisecond}
	w := buildFaultWorld(t, 223, 2, 2, cfg)
	assertExact(t, w, "pre-kill")
	for si := range w.fronts {
		w.fronts[si][0].Close()
	}
	// The stream continues across the kill; retries absorb the
	// connection-refused burst.
	for i := 0; i < 6; i++ {
		assertExact(t, w, "post-kill")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		open := 0
		for si := range w.fronts {
			if replicaState(w, si, 0) != server.ReplicaStateClosed {
				open++
			}
		}
		if open == len(w.fronts) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for si := range w.fronts {
		if st := replicaState(w, si, 0); st == server.ReplicaStateClosed {
			t.Fatalf("shard %d: killed replica still closed after sustained failures", si)
		}
	}
	if h := w.remote.ReplicaHealth(); h.Failovers == 0 {
		t.Fatal("kill produced no failovers")
	}
	assertExact(t, w, "post-trip")
}

// TestFaultMatrixFlap flaps the preferred replica (hard-fail / heal /
// hard-fail ...) and requires exactness through every phase — the
// breaker must both trip fast and re-admit fast (20ms backoff).
func TestFaultMatrixFlap(t *testing.T) {
	w := buildFaultWorld(t, 31, 2, 2, faultCfg())
	for round := 0; round < 6; round++ {
		var rules faultproxy.Rules
		if round%2 == 0 {
			rules = faultproxy.Rules{ErrorProb: 1}
		}
		for si := range w.proxies {
			w.proxies[si][0].SetRules(rules)
		}
		if round%2 == 1 {
			// Give the 20ms breaker backoff room to elapse so healed
			// rounds can genuinely re-admit the replica.
			time.Sleep(30 * time.Millisecond)
		}
		assertExact(t, w, "flap-round")
	}
}

// TestFaultMatrixSlowReplicaHedge slows the preferred replica past
// the hedge threshold: the duplicate launched on the *sibling* wins,
// answers stay exact, and the hedge-win counter proves the crossing
// actually happened (the old same-URL hedge could never win here —
// both attempts would sit behind the same 400ms latency).
func TestFaultMatrixSlowReplicaHedge(t *testing.T) {
	cfg := faultCfg()
	cfg.HedgeAfter = 25 * time.Millisecond
	cfg.ShardTimeout = 5 * time.Second
	w := buildFaultWorld(t, 47, 2, 2, cfg)
	for si := range w.proxies {
		w.proxies[si][0].SetRules(faultproxy.Rules{Latency: 400 * time.Millisecond, LatencyProb: 1})
	}
	assertExact(t, w, "slow-primary")
	if h := w.remote.ReplicaHealth(); h.HedgeWins == 0 {
		t.Fatal("slow primary produced no hedge wins — hedges are not crossing replicas")
	}
}

// TestFaultMatrixBlackhole: the preferred replica accepts and never
// answers; the per-attempt timeout (shortened here) fires, the
// sibling answers, exactness holds.
func TestFaultMatrixBlackhole(t *testing.T) {
	cfg := faultCfg()
	cfg.ShardTimeout = 150 * time.Millisecond
	w := buildFaultWorld(t, 59, 2, 2, cfg)
	for si := range w.proxies {
		w.proxies[si][0].SetRules(faultproxy.Rules{BlackholeProb: 1})
	}
	assertExact(t, w, "blackhole")
}

// TestFaultMatrixAllReplicasDead: with every replica of a shard gone
// the group is dead — the query fails closed by default, degrades
// per-shard-group under WithPartialResults, and still fails once
// every group is dead.
func TestFaultMatrixAllReplicasDead(t *testing.T) {
	w := buildFaultWorld(t, 101, 2, 2, faultCfg())
	ctx := context.Background()
	target := liveTargets(w.lake, 7)[0]
	for _, front := range w.fronts[0] {
		front.Close()
	}
	if _, err := w.remote.Query(ctx, target, d3l.WithK(5)); err == nil {
		t.Fatal("dead shard group answered fail-closed query")
	}
	ans, err := w.remote.Query(ctx, target, d3l.WithK(5), d3l.WithPartialResults())
	if err != nil {
		t.Fatalf("partial query over dead group: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("partial answer over a dead shard group not marked Degraded")
	}
	// The fail-closed queries above hammered shard 0; once its
	// breakers are open the group is dead for the partial policy —
	// but shard 1's replicas must be untouched (the policy is
	// per-group, not per-URL).
	h := w.remote.ReplicaHealth()
	for _, rs := range h.Replicas {
		if rs.Shard == 1 && rs.State != server.ReplicaStateClosed {
			t.Fatalf("healthy shard 1 replica %s tripped to %s", rs.URL, rs.State)
		}
	}
	for _, front := range w.fronts[1] {
		front.Close()
	}
	if _, err := w.remote.Query(ctx, target, d3l.WithK(5), d3l.WithPartialResults()); err == nil {
		t.Fatal("all groups dead still answered under partial")
	}
}

// TestFaultMatrixProbeRecovery: a tripped replica re-enters through
// the active health prober (not traffic): trip it, heal it, and watch
// the breaker walk open → closed while probe failures accumulate
// during the sick window.
func TestFaultMatrixProbeRecovery(t *testing.T) {
	cfg := faultCfg()
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.Breaker = BreakerConfig{ConsecutiveFailures: 2, Backoff: 10 * time.Millisecond}
	w := buildFaultWorld(t, 73, 2, 2, cfg)
	for si := range w.proxies {
		w.proxies[si][0].SetRules(faultproxy.Rules{ErrorProb: 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for replicaState(w, 0, 0) == server.ReplicaStateClosed && time.Now().Before(deadline) {
		assertExact(t, w, "tripping")
	}
	if st := replicaState(w, 0, 0); st == server.ReplicaStateClosed {
		t.Fatal("sustained errors never tripped the breaker")
	}
	// Leave the fault armed long enough for the prober to fail at
	// least one active probe against the open replica.
	for w.remote.ReplicaHealth().ProbeFailures == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if w.remote.ReplicaHealth().ProbeFailures == 0 {
		t.Fatal("open replica was never actively probed")
	}
	for si := range w.proxies {
		w.proxies[si][0].SetRules(faultproxy.Rules{})
	}
	for replicaState(w, 0, 0) != server.ReplicaStateClosed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := replicaState(w, 0, 0); st != server.ReplicaStateClosed {
		t.Fatalf("healed replica never re-admitted (state %s)", st)
	}
	assertExact(t, w, "probe-recovered")
}

// TestFaultMatrixMutationQuarantine: a mutation that fails on one
// replica of its owner group lands exactly once on the survivors, the
// failed replica is quarantined (it can never serve the stale lake),
// and reads stay exact throughout.
func TestFaultMatrixMutationQuarantine(t *testing.T) {
	w := buildFaultWorld(t, 211, 2, 2, faultCfg())
	added := cloneTable(t, w.lake.Table(2), "quarantine_add")
	owner := w.remote.place.Owner(added.Name)
	w.fronts[owner][0].Close()

	wantID, err := w.mono.Add(cloneTable(t, w.lake.Table(2), "quarantine_add"))
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := w.remote.Add(added)
	if err != nil {
		t.Fatalf("add with one dead owner replica: %v", err)
	}
	if gotID != wantID {
		t.Fatalf("add id diverged: mono %d remote %d", wantID, gotID)
	}
	if st := replicaState(w, owner, 0); st != server.ReplicaStateQuarantined {
		t.Fatalf("replica that missed the mutation is %s, want quarantined", st)
	}
	wantStats, err := w.mono.Update(subTable(t, w.lake.Table(1), 6))
	if err != nil {
		t.Fatal(err)
	}
	gotStats, err := w.remote.Update(subTable(t, w.lake.Table(1), 6))
	if err != nil {
		t.Fatalf("update with a dead replica: %v", err)
	}
	if wantStats != gotStats {
		t.Fatalf("update stats diverged: mono %+v remote %+v", wantStats, gotStats)
	}
	if _, err := w.mono.Add(cloneTable(t, w.lake.Table(3), "quarantine_add_b")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.remote.Add(cloneTable(t, w.lake.Table(3), "quarantine_add_b")); err != nil {
		t.Fatalf("second add: %v", err)
	}
	assertExact(t, w, "post-quarantine")
	// Exactly-once: the surviving replicas hold each mutation once — a
	// double-applied add would refuse the next write's ids, and a
	// double-applied update would skew stats; both were asserted above.
	// The quarantined replica stays quarantined even as traffic flows.
	if st := replicaState(w, owner, 0); st != server.ReplicaStateQuarantined {
		t.Fatalf("quarantine lifted by traffic: %s", st)
	}
}

// TestFaultMatrixWriteTouchesOneShard: a write goes to its owner group
// and nowhere else. With the other group's only replica down, an add
// succeeds, and once that replica is back the topology is the monolith
// with the add. With the owner group's only replica down, the add fails
// and leaves every shard as it was: after a reload the topology is the
// monolith without it, and the next add takes the monolith's next id.
func TestFaultMatrixWriteTouchesOneShard(t *testing.T) {
	w := buildFaultWorld(t, 211, 2, 1, faultCfg())
	down := faultproxy.Rules{ResetProb: 1}

	added := cloneTable(t, w.lake.Table(2), "torn_add")
	other := 1 - w.remote.place.Owner(added.Name)
	w.proxies[other][0].SetRules(down)
	wantID, err := w.mono.Add(cloneTable(t, w.lake.Table(2), "torn_add"))
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := w.remote.Add(added)
	if err != nil {
		t.Fatalf("add with the other group down: %v", err)
	}
	if gotID != wantID {
		t.Fatalf("add id: mono %d remote %d", wantID, gotID)
	}
	w.proxies[other][0].SetRules(faultproxy.Rules{})
	assertSameTopology(t, w, "other group down", added)

	lost := cloneTable(t, w.lake.Table(4), "torn_lost")
	owner := w.remote.place.Owner(lost.Name)
	w.proxies[owner][0].SetRules(down)
	if _, err := w.remote.Add(lost); err == nil {
		t.Fatal("add with its owner group down succeeded")
	}
	if w.remote.HasTable(lost.Name) {
		t.Fatal("the failed add is live")
	}
	w.proxies[owner][0].SetRules(faultproxy.Rules{})
	// The failed add quarantined the owner's replica; a reload lifts it.
	w.reload(t, faultCfg())
	assertSameTopology(t, w, "owner group down", added)

	next := cloneTable(t, w.lake.Table(5), "torn_next")
	if wantID, err = w.mono.Add(cloneTable(t, w.lake.Table(5), "torn_next")); err != nil {
		t.Fatal(err)
	}
	if gotID, err = w.remote.Add(next); err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Fatalf("the add after a failed one: mono id %d remote %d", wantID, gotID)
	}
	assertSameTopology(t, w, "after the failed add", added, next)
}

// TestFaultMatrixReloadUnderWrite: POST /v1/reload while an add is
// still in flight through the old coordinator, held in its owner's
// proxy. The new coordinator is built while the add is held, but the
// server's swap waits the add out and only then has the new one learn
// its write ids: so the next add, on the other shard, takes the
// monolith's next id rather than the one the held add took.
func TestFaultMatrixReloadUnderWrite(t *testing.T) {
	w := buildFaultWorld(t, 211, 2, 1, faultCfg())
	srv, err := server.New(w.remote, server.Config{LoadFunc: func() (server.Engine, error) {
		return NewRemote(w.urls, faultCfg())
	}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	held := cloneTable(t, w.lake.Table(2), "held_add")
	owner := w.remote.place.Owner(held.Name)
	w.proxies[owner][0].SetRules(faultproxy.Rules{Path: "/v1/tables", Latency: 500 * time.Millisecond, LatencyProb: 1})
	if _, err := w.mono.Add(cloneTable(t, w.lake.Table(2), "held_add")); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.AddTableRequest{Table: tableToWire(held)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/tables", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the held add: %v", err)
	}
	w.proxies[owner][0].SetRules(faultproxy.Rules{})
	w.remote = srv.Engine().(*Remote)
	t.Cleanup(func() { w.remote.Close() })

	name := nameOwnedBy(w.remote.place, "after_reload", func(s int) bool { return s != owner })
	wantID, err := w.mono.Add(cloneTable(t, w.lake.Table(4), name))
	if err != nil {
		t.Fatal(err)
	}
	next := cloneTable(t, w.lake.Table(4), name)
	gotID, err := w.remote.Add(next)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Fatalf("the add after the reload: mono id %d remote %d", wantID, gotID)
	}
	assertSameTopology(t, w, "reload under a write", held, next)
}

// TestFaultMatrixLostAnswerToAWrite: the owner applies an add but its
// answer is cut short, so the add fails with its ids possibly taken.
// The coordinator then hands those ids to no other shard: it learns its
// counters again first, which fails while the owner group is
// quarantined, so the next write fails too. After a reload the applied
// add is live, and the next add on the other shard takes the id after
// it.
func TestFaultMatrixLostAnswerToAWrite(t *testing.T) {
	w := buildFaultWorld(t, 211, 2, 1, faultCfg())
	lost := cloneTable(t, w.lake.Table(2), "lost_answer")
	owner := w.remote.place.Owner(lost.Name)
	w.proxies[owner][0].SetRules(faultproxy.Rules{Path: "/v1/tables", TruncateProb: 1})
	if _, err := w.remote.Add(lost); err == nil {
		t.Fatal("an add whose answer was cut short succeeded")
	}
	w.proxies[owner][0].SetRules(faultproxy.Rules{})
	if _, err := w.mono.Add(cloneTable(t, w.lake.Table(2), "lost_answer")); err != nil {
		t.Fatal(err)
	}

	name := nameOwnedBy(w.remote.place, "after_lost", func(s int) bool { return s != owner })
	if _, err := w.remote.Add(cloneTable(t, w.lake.Table(4), name)); err == nil {
		t.Fatal("an add went through while the ids of the lost answer were unknown")
	}
	w.reload(t, faultCfg())
	wantID, err := w.mono.Add(cloneTable(t, w.lake.Table(4), name))
	if err != nil {
		t.Fatal(err)
	}
	next := cloneTable(t, w.lake.Table(4), name)
	gotID, err := w.remote.Add(next)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Fatalf("the add after the reload: mono id %d remote %d", wantID, gotID)
	}
	assertSameTopology(t, w, "after a lost answer", lost, next)
}

// assertSameTopology holds the coordinator to the monolith on all that
// a write moves: the answers for the lake's targets and the extra ones,
// the live listing, and both slot counts.
func assertSameTopology(t *testing.T, w *faultWorld, label string, extra ...*d3l.Table) {
	t.Helper()
	assertExact(t, w, label)
	for _, target := range extra {
		want, err := w.mono.Query(context.Background(), target, d3l.WithK(6))
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.remote.Query(context.Background(), target, d3l.WithK(6))
		if err != nil {
			t.Fatalf("%s: remote %s: %v", label, target.Name, err)
		}
		assertAnswersEqual(t, label+" "+target.Name, want, got)
	}
	if want, got := w.mono.Tables(), w.remote.Tables(); !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: tables: mono %v remote %v", label, want, got)
	}
	if w.mono.NumTables() != w.remote.NumTables() || w.mono.NumAttributes() != w.remote.NumAttributes() {
		t.Fatalf("%s: slots: mono %d tables, %d attributes; remote %d, %d", label,
			w.mono.NumTables(), w.mono.NumAttributes(), w.remote.NumTables(), w.remote.NumAttributes())
	}
}

// TestCoordinatorReadyz drives GET /v1/readyz through the full
// serving stack: 200 while every group has a closed replica, 503 with
// the degraded groups listed once a whole group is gone, and
// /v1/healthz stays liveness-only (200) throughout.
func TestCoordinatorReadyz(t *testing.T) {
	cfg := faultCfg()
	cfg.Breaker = BreakerConfig{ConsecutiveFailures: 2, Backoff: time.Minute}
	cfg.Retries = 1
	w := buildFaultWorld(t, 89, 2, 2, cfg)
	srv, err := server.New(w.remote, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(srv)
	t.Cleanup(coord.Close)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := coord.Client().Get(coord.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if status, body := get("/v1/readyz"); status != 200 || !strings.Contains(body, `"ready"`) {
		t.Fatalf("healthy coordinator readyz = %d %s", status, body)
	}
	// Kill shard 0's whole group and trip both breakers with direct
	// queries (readyz itself must never send traffic to replicas).
	for _, front := range w.fronts[0] {
		front.Close()
	}
	ctx := context.Background()
	target := liveTargets(w.lake, 7)[0]
	for i := 0; i < 4; i++ {
		w.remote.Query(ctx, target, d3l.WithK(3))
	}
	status, body := get("/v1/readyz")
	if status != 503 {
		t.Fatalf("degraded coordinator readyz = %d %s", status, body)
	}
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, `"shard":0`) || strings.Contains(body, `"shard":1`) {
		t.Fatalf("readyz body does not list exactly the dead group: %s", body)
	}
	if status, body := get("/v1/healthz"); status != 200 {
		t.Fatalf("healthz lost liveness while degraded: %d %s", status, body)
	}
}

// TestRemoteMultiReplicaClean: replica groups with no faults at all
// still answer exactly and spread construction across every replica
// (the plain-path regression check for the group plumbing).
func TestRemoteMultiReplicaClean(t *testing.T) {
	w := buildFaultWorld(t, 5, 3, 2, faultCfg())
	if got := w.remote.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	if got := w.remote.NumReplicas(); got != 6 {
		t.Fatalf("NumReplicas = %d, want 6", got)
	}
	assertExact(t, w, "clean")
	h := w.remote.ReplicaHealth()
	if len(h.Replicas) != 6 {
		t.Fatalf("health reports %d replicas, want 6", len(h.Replicas))
	}
	for _, rs := range h.Replicas {
		if rs.State != server.ReplicaStateClosed {
			t.Fatalf("clean-world replica %s in state %s", rs.URL, rs.State)
		}
	}
}
