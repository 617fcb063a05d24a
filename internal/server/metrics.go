package server

import (
	"fmt"
	"net/http"
	"time"

	"d3l"
	"d3l/internal/metrics"
)

// This file is the Prometheus face of the serving subsystem: a
// zero-dependency /metrics endpoint exposing every /v1/statsz counter
// plus per-stage query-latency histograms.
//
// # Consistency contract
//
// /metrics and /v1/statsz render from the same snapshot code path
// (Server.statsSnapshot → stats.snapshot), which reads each counter
// exactly once per scrape, in a fixed order: outcome counters first,
// the requests total last. Counters are updated lock-free on the hot
// path, so a scrape is not a point-in-time transaction — but the read
// order buys the invariant dashboards actually divide by: every
// outcome counter was incremented after its request was counted, so a
// snapshot's outcome values can never exceed its requests value
// (reading requests last can only make it larger, never smaller, than
// it was when the outcomes were read). Within that bound each counter
// is individually exact and monotonic. Note the cache counters count
// lookup outcomes, not requests: a coalesced waiter whose leader was
// cancelled retries the lookup, so hits+misses+coalesced may count one
// request's key more than once — by design.
//
// # Naming scheme
//
// Families are prefixed d3l_, counters end in _total, durations are
// histograms in seconds with the unit suffix _seconds. The per-stage
// histograms share one family, d3l_query_stage_duration_seconds,
// partitioned by the stage label — two server-side stages
// (admission_wait, cache_lookup) plus the four engine pipeline stages
// (plan_prepare, gather, score, rank_merge; see core/stages.go for the
// exact boundaries). The golden exposition test pins names, types,
// HELP text and bucket bounds; changing any of them is a
// dashboard-breaking change that must show up in review as a fixture
// diff.

// stageBuckets are the fixed upper bounds (seconds) of every stage
// histogram. The range spans sub-microsecond admission fast paths to
// the 10s ceiling beyond which a stage is pathological; fixed buckets
// keep hot-path recording allocation-free and make scrapes from
// different builds directly comparable (the committed SLO snapshots
// diff bucket-for-bucket across PRs).
var stageBuckets = []float64{
	0.000001, 0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Server-side stage label values; the engine pipeline stages follow
// d3l.QueryStage.String().
const (
	stageAdmissionWait = "admission_wait"
	stageCacheLookup   = "cache_lookup"
)

// metricFamilyNames is the complete family set /metrics exposes, in
// exposition order. MetricNames hands it to the load driver, whose SLO
// gate fails closed when any family is missing from a live scrape.
var metricFamilyNames = []string{
	"d3l_engine_info",
	"d3l_engine_tables",
	"d3l_engine_attributes",
	"d3l_http_requests_total",
	"d3l_inflight_requests",
	"d3l_result_cache_hits_total",
	"d3l_result_cache_misses_total",
	"d3l_result_cache_coalesced_total",
	"d3l_result_cache_entries",
	"d3l_rejected_total",
	"d3l_unavailable_total",
	"d3l_timeouts_total",
	"d3l_canceled_total",
	"d3l_mutations_total",
	"d3l_updates_total",
	"d3l_update_delta_cols_total",
	"d3l_reloads_total",
	"d3l_plan_cache_hits_total",
	"d3l_plan_cache_misses_total",
	"d3l_plan_tables_pruned_total",
	"d3l_plan_pairs_pruned_total",
	"d3l_plan_evidence_evals_elided_total",
	"d3l_replica_breaker_state",
	"d3l_replica_failovers_total",
	"d3l_replica_probe_failures_total",
	"d3l_replica_hedge_wins_total",
	"d3l_query_stage_duration_seconds",
}

// MetricNames returns the metric family names every healthy replica
// exposes on /metrics. The set is fixed at build time (no series
// appears lazily), so "scrape contains all of MetricNames()" is a
// sound fail-closed gate.
func MetricNames() []string {
	return append([]string(nil), metricFamilyNames...)
}

// StageLabelValues returns every value of the stage label of
// d3l_query_stage_duration_seconds, in pipeline order.
func StageLabelValues() []string {
	vals := []string{stageAdmissionWait, stageCacheLookup}
	for s := d3l.QueryStage(0); s < d3l.NumQueryStages; s++ {
		vals = append(vals, s.String())
	}
	return vals
}

// serverMetrics bundles the registry and the histogram instruments the
// request path records into. Counters are not duplicated here: the
// stats struct stays the single source of truth and is rendered into
// counter families at scrape time through the shared snapshot.
type serverMetrics struct {
	reg           *metrics.Registry
	stages        *metrics.HistogramVec
	admissionWait *metrics.Histogram
	cacheLookup   *metrics.Histogram
	coreStage     [int(d3l.NumQueryStages)]*metrics.Histogram
}

func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{reg: metrics.NewRegistry()}
	m.stages = metrics.NewHistogramVec(
		"d3l_query_stage_duration_seconds",
		"Wall time of one query pipeline stage (see DESIGN.md for stage boundaries).",
		stageBuckets, "stage", StageLabelValues()...)
	m.admissionWait = m.stages.With(stageAdmissionWait)
	m.cacheLookup = m.stages.With(stageCacheLookup)
	for s := d3l.QueryStage(0); s < d3l.NumQueryStages; s++ {
		m.coreStage[s] = m.stages.With(s.String())
	}
	m.reg.MustRegister(metrics.CollectorFunc(s.collectStats), m.stages)
	return m
}

// observeCoreStage is the d3l.StageObserver the server installs on
// every engine it serves (initial, swapped, reloaded).
func (m *serverMetrics) observeCoreStage(stage d3l.QueryStage, d time.Duration) {
	m.coreStage[stage].Observe(d.Seconds())
}

// countersSnapshot is one reading of the serving counters. See the
// consistency contract at the top of this file: each field is read
// exactly once, outcome counters before Requests.
type countersSnapshot struct {
	InFlight        int64
	CacheHits       int64
	CacheMisses     int64
	Coalesced       int64
	Rejected        int64
	Unavailable     int64
	Timeouts        int64
	Canceled        int64
	Mutations       int64
	Updates         int64
	UpdateDeltaCols int64
	Reloads         int64
	Requests        int64
}

// snapshot reads every counter once. Requests is deliberately read
// last: every other counter is incremented only after the request it
// describes was counted into requests, so reading requests after the
// outcomes guarantees outcomes ≤ requests in every snapshot.
func (st *stats) snapshot() countersSnapshot {
	s := countersSnapshot{
		InFlight:        st.inFlight.Load(),
		CacheHits:       st.cacheHits.Load(),
		CacheMisses:     st.cacheMisses.Load(),
		Coalesced:       st.coalesced.Load(),
		Rejected:        st.rejected.Load(),
		Unavailable:     st.unavailable.Load(),
		Timeouts:        st.timeouts.Load(),
		Canceled:        st.canceled.Load(),
		Mutations:       st.mutations.Load(),
		Updates:         st.updates.Load(),
		UpdateDeltaCols: st.updateDeltaCols.Load(),
		Reloads:         st.reloads.Load(),
	}
	s.Requests = st.requests.Load()
	return s
}

// statsSnapshot is the one code path both /v1/statsz and /metrics
// render from: serving counters plus the engine-derived values
// (fingerprint, sizes, planner totals), all read here and nowhere
// else.
type statsSnapshot struct {
	countersSnapshot
	EngineFingerprint uint64
	Tables            int
	Attributes        int
	CacheEntries      int
	Planner           d3l.PlannerTotals
}

func (s *Server) statsSnapshot() statsSnapshot {
	eng := s.Engine()
	snap := statsSnapshot{
		countersSnapshot:  s.stats.snapshot(),
		EngineFingerprint: eng.Fingerprint(),
		Tables:            eng.NumTables(),
		Attributes:        eng.NumAttributes(),
		CacheEntries:      s.cache.len(),
	}
	// Optional, like New's hooks: no planner owns a shard set's merge.
	if p, ok := eng.(interface{ PlannerTotals() d3l.PlannerTotals }); ok {
		snap.Planner = p.PlannerTotals()
	}
	return snap
}

// collectStats renders the snapshot as counter and gauge families.
// Family order here must match metricFamilyNames.
func (s *Server) collectStats(w *metrics.Writer) {
	snap := s.statsSnapshot()
	w.Gauge("d3l_engine_info", "Constant 1; the fingerprint label identifies the serving engine.",
		1, metrics.Label{Name: "fingerprint", Value: fmt.Sprintf("%016x", snap.EngineFingerprint)})
	w.Gauge("d3l_engine_tables", "Table slots in the serving lake (tombstones included).", float64(snap.Tables))
	w.Gauge("d3l_engine_attributes", "Attributes indexed by the serving engine.", float64(snap.Attributes))
	w.Counter("d3l_http_requests_total", "HTTP requests received, any route or status.", float64(snap.Requests))
	w.Gauge("d3l_inflight_requests", "Admitted queries and mutations currently executing.", float64(snap.InFlight))
	w.Counter("d3l_result_cache_hits_total", "Result-cache lookups answered from cache.", float64(snap.CacheHits))
	w.Counter("d3l_result_cache_misses_total", "Result-cache lookups that computed a response.", float64(snap.CacheMisses))
	w.Counter("d3l_result_cache_coalesced_total", "Identical concurrent misses that shared another request's computation.", float64(snap.Coalesced))
	w.Gauge("d3l_result_cache_entries", "Entries currently held by the result cache.", float64(snap.CacheEntries))
	w.Counter("d3l_rejected_total", "Requests rejected 429 at the admission gate.", float64(snap.Rejected))
	w.Counter("d3l_unavailable_total", "Requests rejected 503 while draining.", float64(snap.Unavailable))
	w.Counter("d3l_timeouts_total", "Requests that exceeded the execution deadline (503, work cancelled).", float64(snap.Timeouts))
	w.Counter("d3l_canceled_total", "Requests whose client disconnected mid-computation (work cancelled).", float64(snap.Canceled))
	w.Counter("d3l_mutations_total", "Acknowledged table adds, updates and removes.", float64(snap.Mutations))
	w.Counter("d3l_updates_total", "Acknowledged in-place table updates (subset of mutations).", float64(snap.Updates))
	w.Counter("d3l_update_delta_cols_total", "Columns re-profiled by in-place updates (the update delta).", float64(snap.UpdateDeltaCols))
	w.Counter("d3l_reloads_total", "Hot snapshot reloads that swapped the serving engine.", float64(snap.Reloads))
	w.Counter("d3l_plan_cache_hits_total", "Prepared-plan cache hits (current engine lifetime).", float64(snap.Planner.PlanCacheHits))
	w.Counter("d3l_plan_cache_misses_total", "Prepared-plan cache misses (current engine lifetime).", float64(snap.Planner.PlanCacheMisses))
	w.Counter("d3l_plan_tables_pruned_total", "Candidate tables pruned by the evidence cascade.", float64(snap.Planner.TablesPruned))
	w.Counter("d3l_plan_pairs_pruned_total", "Candidate pairs inside pruned tables.", float64(snap.Planner.PairsPruned))
	w.Counter("d3l_plan_evidence_evals_elided_total", "Per-table evidence evaluations elided by early termination.", float64(snap.Planner.EvidenceEvalsElided))

	// Replica fault-tolerance families. Engines without replica
	// groups (monoliths, in-process shard sets) expose the families
	// with zero values — every family in MetricNames appears on every
	// scrape, so the loadgen/chaos fail-closed gates stay sound. The
	// breaker-state gauge has one series per replica; with no
	// replicas it is emitted as a sample-less family.
	var health ReplicaHealth
	if rep, ok := s.Engine().(ReplicaHealthReporter); ok {
		health = rep.ReplicaHealth()
	}
	w.Family("d3l_replica_breaker_state",
		"Per-replica circuit-breaker state (0 closed, 1 half-open, 2 open, 3 quarantined).", "gauge")
	for _, rs := range health.Replicas {
		w.Gauge("d3l_replica_breaker_state",
			"Per-replica circuit-breaker state (0 closed, 1 half-open, 2 open, 3 quarantined).",
			replicaStateValue(rs.State),
			metrics.Label{Name: "shard", Value: fmt.Sprintf("%d", rs.Shard)},
			metrics.Label{Name: "replica", Value: rs.URL})
	}
	w.Counter("d3l_replica_failovers_total", "Read-path attempts that moved to a sibling replica after a transient failure.", float64(health.Failovers))
	w.Counter("d3l_replica_probe_failures_total", "Active health probes of open-breaker replicas that failed.", float64(health.ProbeFailures))
	w.Counter("d3l_replica_hedge_wins_total", "Hedged requests whose duplicate on a sibling replica answered first.", float64(health.HedgeWins))
}

// MetricsHandler returns the /metrics endpoint handler, for mounting
// on additional listeners (the CLI mounts it next to pprof on the
// loopback debug listener so operators can scrape a replica whose
// public listener is saturated).
func (s *Server) MetricsHandler() http.Handler {
	return s.metrics.reg.Handler()
}
