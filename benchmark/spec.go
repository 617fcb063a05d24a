package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Lake and query shape shared by every workload. The lake is the
// Synthetic benchmark of the paper at 1 000 derived tables (~4 300
// attributes) from 32 bases; targets are 64-row windows of lake tables.
const (
	lakeBaseTables    = 32
	lakeDerivedTables = 1000
	// defaultSeed is the seed of the lake, always, and of the request
	// stream unless -seed says otherwise.
	defaultSeed = 1307
	queryK      = 10
	windowRows  = 64
	// maxShift bounds the cold-window shifts a run can use: a target
	// table must have windowRows+maxShift rows so that every shifted
	// window is a distinct set of rows, not a rotation of the same set.
	maxShift = 40
	// defaultSeconds is the measured-phase length the pass counts below
	// are sized for on the reference box; -seconds scales the pass
	// counts linearly from it. It matches run_seconds in BENCHMARK.json.
	defaultSeconds = 15
)

type topology int

const (
	topoMono topology = iota
	topoCoord
)

type traffic int

const (
	trafficCold traffic = iota
	trafficChurn
)

// workloadSpec fixes the work of one workload by count: a pass is a
// fixed sequence of operation slots, a phase is a fixed number of
// passes. Nothing here adapts to the speed of the machine.
type workloadSpec struct {
	name     string
	topology topology
	traffic  traffic
	// targets is the number of distinct source tables the read slots
	// draw from; slots is the read slots per pass of phases A and B.
	targets int
	slots   int
	// passesA, passesB, passesW are the pass counts at defaultSeconds.
	passesA, passesB, passesW int
}

// churn constants: a cycle is one write followed by churnReads reads of
// the churnHot hot targets (each target once cold, then twice from the
// cache); a pass is churnCycles cycles, a multiple of three so that
// every pass walks whole add → update → remove rounds and slot i is the
// same operation in every pass.
const (
	churnHot    = 16
	churnReads  = 48
	churnCycles = 9
	// Phase B of churn: one write per churnReadsPerWriteB reads, so
	// after each write 16 reads miss and the rest hit.
	churnReadsPerWriteB = 300
	churnWritesB        = 6
	writeCycles         = 60   // phase W: add → update → remove cycles per pass
	hotProbeReads       = 4000 // traced runs: result-cache hits over HTTP,
	hotProbePasses      = 8    // in this many passes
	// defaultWorkersPasses is the length of the traced runs' latency
	// phase at the engine's default parallelism.
	defaultWorkersPasses = 2
)

const (
	// serveWorkers is the -workers flag of every `d3l serve` process in
	// the gated phases: one request runs on one core. With the default
	// (GOMAXPROCS = 2 on the reference box) a query fans out over both
	// cores and waits for the slower one, so a neighbour on either core
	// slows every sample of every pass and no minimum recovers the
	// service time: with one core half-stolen, query_p50_ms moved 28 % at
	// the default and 0.6 % at -workers 1. The default is measured too,
	// ungated, by the traced run (defaultWorkersProbe).
	serveWorkers = "1"
	// indexBuilds is how often a run builds the index to time it, and
	// coldStarts how often it starts the topology.
	indexBuilds = 3
	coldStarts  = 3
	// qualityProbes is the number of fixed probe queries precision and
	// recall are computed from.
	qualityProbes = 60
)

var workloads = []workloadSpec{
	{name: "mono_cold", topology: topoMono, traffic: trafficCold, targets: 100, slots: 100, passesA: 12, passesB: 8, passesW: 10},
	{name: "mono_churn", topology: topoMono, traffic: trafficChurn, targets: churnHot, slots: churnCycles * churnReads, passesA: 8, passesB: 4},
	{name: "coord_cold", topology: topoCoord, traffic: trafficCold, targets: 50, slots: 50, passesA: 6, passesB: 3, passesW: 8},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled returns the spec with its pass counts scaled from
// defaultSeconds to seconds (at least two passes per phase that has
// any, so a slot minimum is always a minimum of something).
func (w workloadSpec) scaled(seconds int) workloadSpec {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		s := (n*seconds + defaultSeconds/2) / defaultSeconds
		if s < 2 {
			s = 2
		}
		return s
	}
	w.passesA, w.passesB, w.passesW = scale(w.passesA), scale(w.passesB), scale(w.passesW)
	// Every cold pass needs a window shift of its own: shift 0 is the
	// churn workload's hot set, the top one the traced run's hot probe.
	if budget := maxShift - 2; w.traffic == trafficCold && w.passesA+w.passesB > budget {
		w.passesA = max(2, w.passesA*budget/(w.passesA+w.passesB))
		w.passesB = budget - w.passesA
	}
	return w
}

// metricDecl is one metric the program prints. The end-to-end list is
// printed by an untraced run, the per-layer list by a traced run;
// BENCHMARK.json declares the same names and units (consistency is a
// test).
type metricDecl struct {
	name string
	unit string
}

var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"index_build_s", "s"},
	{"snapshot_mb", "MB"},
	{"rss_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_loaded_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"precision_at_k", "ratio"},
	{"recall_at_k", "ratio"},
	{"answer_ok_ratio", "ratio"},
}

var perLayerMetrics = []metricDecl{
	{"table.csv_load_ms_per_table", "ms"},
	{"tokenize.tokens_ns_per_value", "ns"},
	{"tokenize.qgrams_ns_per_name", "ns"},
	{"minhash.sketch_us_per_column", "us"},
	{"embed.mean_us_per_column", "us"},
	{"lsh.simhash_sketch_us", "us"},
	{"lsh.forest_build_ms", "ms"},
	{"lsh.forest_query_us", "us"},
	{"lsh.forest_insert_us", "us"},
	{"lsh.forest_delete_us", "us"},
	{"stats.ks_us", "us"},
	{"stats.ecdf_build_us", "us"},
	{"subject.classify_us_per_table", "us"},
	{"core.build_s", "s"},
	{"core.heap_mb", "MB"},
	{"core.profile_target_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.stage_plan_prepare_ms", "ms"},
	{"core.stage_gather_ms", "ms"},
	{"core.stage_score_ms", "ms"},
	{"core.stage_rank_merge_ms", "ms"},
	{"core.search_unattributed_ms", "ms"},
	{"core.candidate_pairs_per_query", "count"},
	{"core.tables_scored_per_query", "count"},
	{"core.tables_pruned_per_query", "count"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.search_allocs_per_query", "count"},
	{"core.search_alloc_kb_per_query", "kB"},
	{"core.add_ms", "ms"},
	{"core.update_ms", "ms"},
	{"core.remove_ms", "ms"},
	{"core.update_reprofiled_cols", "count"},
	{"core.shard_probe_ms", "ms"},
	{"core.shard_gather_ms", "ms"},
	{"core.shard_merge_ms", "ms"},
	{"joins.graph_build_s", "s"},
	{"joins.query_ms", "ms"},
	{"persist.save_s", "s"},
	{"persist.load_s", "s"},
	{"persist.bytes_per_attr", "B"},
	{"server.query_miss_ms", "ms"},
	{"server.query_hit_us", "us"},
	{"server.overhead_ms", "ms"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.mutation_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hit_ratio_phase_a", "ratio"},
	{"server.stage_admission_wait_ms", "ms"},
	{"server.cpu_ms_per_op", "ms"},
	{"server.coldstart_s", "s"},
	{"server.rss_peak_mb", "MB"},
	{"shard.build_set_s", "s"},
	{"shard.set_query_ms", "ms"},
	{"shard.remote_query_ms", "ms"},
	{"shard.wire_overhead_ms", "ms"},
	{"shard.set_vs_mono_ratio", "ratio"},
	{"transport.http_roundtrip_us", "us"},
	{"run.noise_ratio", "ratio"},
	{"run.query_p99_raw_ms", "ms"},
	{"run.query_p50_raw_ms", "ms"},
	{"run.ops", "count"},
	{"run.qps_best_pass", "1/s"},
	{"run.default_workers_p50_ms", "ms"},
	{"run.default_workers_p90_ms", "ms"},
	{"run.default_workers_speedup", "ratio"},
	{"run.explained_ms", "ms"},
	{"run.unexplained_ms", "ms"},
	{"run.unexplained_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// unexplainedTolerance is the stated tolerance of the reconciliation:
// the share of the end-to-end latency the per-layer figures may fail
// to account for before the run prints a warning.
const unexplainedTolerance = 0.15

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// checkDeclared verifies that BENCHMARK.json and the program agree:
// same workloads, same metric names and units on both lists, a
// direction on every metric and a bound on every end-to-end one.
func (bf *benchmarkFile) checkDeclared() error {
	if bf.RunSeconds != defaultSeconds {
		return fmt.Errorf("run_seconds is %d, the program is sized for %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []benchMetric, printed []metricDecl, bounded bool) error {
		if len(declared) != len(printed) {
			return fmt.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			p := printed[i]
			switch {
			case d.Name != p.name:
				return fmt.Errorf("%s metric %d is %q in BENCHMARK.json and %q in the program", kind, i, d.Name, p.name)
			case d.Unit != p.unit:
				return fmt.Errorf("%s: unit %q declared, %q printed", d.Name, d.Unit, p.unit)
			case !nameRE.MatchString(d.Name):
				return fmt.Errorf("%s: bad metric name", d.Name)
			case !unitRE.MatchString(d.Unit):
				return fmt.Errorf("%s: bad unit %q", d.Name, d.Unit)
			case d.Better != "lower" && d.Better != "higher":
				return fmt.Errorf("%s: better is %q", d.Name, d.Better)
			case seen[d.Name]:
				return fmt.Errorf("%s: declared twice", d.Name)
			case bounded && (d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25):
				return fmt.Errorf("%s: end-to-end metric needs a bound in [0, 0.25]", d.Name)
			case !bounded && d.Bound != nil:
				return fmt.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
			seen[d.Name] = true
		}
		return nil
	}
	if err := check("end_to_end", bf.EndToEnd, endToEndMetrics, true); err != nil {
		return err
	}
	return check("per_layer", bf.PerLayer, perLayerMetrics, false)
}
