package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d3l/internal/table"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	spec  workloadSpec
	seed  uint64
	trace bool
	out   string
	log   io.Writer // progress and the human-readable report
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// e2eResult is what an end-to-end run produced.
type e2eResult struct {
	metrics   map[string]measured // endToEndMetrics
	diag      map[string]measured // run.* and the server.* values scraped from the binary
	attempted int
	failures  []string
	// meanSlotMinMS is the mean de-noised read latency of phase A, the
	// figure the traced run reconciles the layers against; hitShareA
	// is the share of phase A reads answered from the result cache.
	meanSlotMinMS float64
	hitShareA     float64
	hotHitMS      float64 // traced runs only
	lakeDir       string  // the lake as CSV, for the traced run's reader
}

// clientCount is C of the saturation phase: load comes from one
// process, so more clients than cores would measure the generator.
func clientCount() int {
	return min(runtime.NumCPU(), 4)
}

// deployment is a started topology: the front end requests go to, and
// every server process behind it.
type deployment struct {
	front *proc
	procs []*proc
}

func (d *deployment) sum(read func(*proc) (float64, error)) (float64, error) {
	var total float64
	for _, p := range d.procs {
		v, err := read(p)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// deploy starts the topology over the built index and waits until it
// is ready, returning the wall time from the first exec to readiness.
// workers is the -workers flag of every `d3l serve` process; with debug
// each of them also gets the loopback -pprof listener heapLiveMB reads.
func deploy(h *harness, spec workloadSpec, index string, probe *http.Client, workers string, debug bool) (*deployment, time.Duration, error) {
	start := time.Now()
	serve := func(name, snapshot string) (*proc, error) {
		args := []string{"serve", "-index", snapshot, "-workers", workers}
		if !debug {
			return h.start(name, args...)
		}
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		p, err := h.start(name, append(args, "-pprof", addr)...)
		if err == nil {
			p.debug = "http://" + addr
		}
		return p, err
	}
	if spec.topology == topoMono {
		p, err := serve("serve", index)
		if err != nil {
			return nil, 0, err
		}
		if err := p.waitReady(probe, "/v1/healthz"); err != nil {
			return nil, 0, err
		}
		return &deployment{front: p, procs: []*proc{p}}, time.Since(start), nil
	}
	var shards []*proc
	for i := 0; i < 2; i++ {
		p, err := serve(fmt.Sprintf("shard%d", i), filepath.Join(index, fmt.Sprintf("shard-%03d.d3l", i)))
		if err != nil {
			return nil, 0, err
		}
		shards = append(shards, p)
	}
	args := []string{"coordinator"}
	for _, p := range shards {
		if err := p.waitReady(probe, "/v1/healthz"); err != nil {
			return nil, 0, err
		}
		args = append(args, "-shard", p.base)
	}
	coord, err := h.start("coordinator", args...)
	if err != nil {
		return nil, 0, err
	}
	if err := coord.waitReady(probe, "/v1/readyz"); err != nil {
		return nil, 0, err
	}
	return &deployment{front: coord, procs: append(shards, coord)}, time.Since(start), nil
}

func (h *harness) undeploy(d *deployment) {
	// Front first: a coordinator that outlives its shards would spend
	// its drain probing dead replicas.
	h.stopProc(d.front)
	for _, p := range d.procs {
		if p != d.front {
			h.stopProc(p)
		}
	}
}

var heapAllocRE = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)

// heapLiveMB is the live Go heap of the processes that hold an index:
// HeapAlloc right after the collection that /debug/pprof/heap?gc=1
// forces, summed over the `d3l serve` processes of a deployment started
// with debug. Unlike a resident size it does not depend on where the
// collector happened to be, so it repeats to a fraction of a per cent.
func heapLiveMB(client *http.Client, d *deployment) (float64, error) {
	return d.sum(func(p *proc) (float64, error) {
		if p.debug == "" {
			return 0, nil // the coordinator holds no index
		}
		resp, err := client.Get(p.debug + "/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		m := heapAllocRE.FindSubmatch(text)
		if m == nil {
			return 0, fmt.Errorf("%s: no HeapAlloc in the heap profile (status %d)", p.name, resp.StatusCode)
		}
		bytes, err := strconv.ParseFloat(string(m[1]), 64)
		return bytes / (1 << 20), err
	})
}

// statsz is the part of GET /v1/statsz the benchmark reads.
type statsz struct {
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Coalesced   int64 `json:"coalesced"`
	Rejected    int64 `json:"rejected"`
	Timeouts    int64 `json:"timeouts"`
}

func getStatsz(client *http.Client, base string) (statsz, error) {
	var s statsz
	resp, err := client.Get(base + "/v1/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/statsz: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func hitRatio(before, after statsz) float64 {
	hits := after.CacheHits - before.CacheHits
	lookups := hits + after.CacheMisses - before.CacheMisses + after.Coalesced - before.Coalesced
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

var admissionWaitRE = regexp.MustCompile(`(?m)^d3l_query_stage_duration_seconds_(sum|count)\{stage="admission_wait"\} (\S+)$`)

// admissionWaitMS scrapes the mean admission wait per admitted request
// from the binary's /metrics histogram.
func admissionWaitMS(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum, count float64
	for _, m := range admissionWaitRE.FindAllStringSubmatch(string(text), -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return 0, err
		}
		if m[1] == "sum" {
			sum = v
		} else {
			count = v
		}
	}
	if count == 0 {
		return 0, nil
	}
	return sum / count * 1000, nil
}

// runE2E is one end-to-end run of a workload against the real binary.
func runE2E(ctx context.Context, h *harness, cfg runConfig, in *inputs) (*e2eResult, error) {
	spec := cfg.spec
	logf := func(format string, a ...any) { fmt.Fprintf(cfg.log, format+"\n", a...) }
	probe := &http.Client{Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()

	// --- set-up: what a user pays once, each step timed on its own ---

	// lake_write_s: the generated lake written as CSV, median of 3.
	var lakeDir string
	var lakeWrites []float64
	for i := 0; i < 3; i++ {
		lakeDir = filepath.Join(h.work, fmt.Sprintf("lake%d", i))
		t0 := time.Now()
		if err := table.SaveLakeDir(in.lake, lakeDir); err != nil {
			return nil, err
		}
		lakeWrites = append(lakeWrites, time.Since(t0).Seconds())
		if i < 2 {
			os.RemoveAll(lakeDir)
		}
	}
	lakeWriteS := median(lakeWrites)

	// index_build_s: the `d3l index build` subprocess, best of indexBuilds.
	index := filepath.Join(h.work, "index.d3l")
	buildArgs := []string{"index", "build", "-dir", lakeDir, "-out", index}
	if spec.topology == topoCoord {
		index = filepath.Join(h.work, "index")
		buildArgs = []string{"index", "build", "-dir", lakeDir, "-out", index, "-shards", "2"}
	}
	var builds []float64
	for i := 0; i < indexBuilds; i++ {
		os.RemoveAll(index)
		d, err := h.runTool(ctx, "index-build", buildArgs...)
		if err != nil {
			return nil, err
		}
		builds = append(builds, d.Seconds())
	}
	indexBuildS := minOf(builds)
	snapshotBytes, err := treeSize(index)
	if err != nil {
		return nil, err
	}
	logf("set-up: lake_write_s %.3f (median of %v)  index_build_s %.3f (best of %v)  snapshot %.1f MB",
		lakeWriteS, round3(lakeWrites), indexBuildS, round3(builds), float64(snapshotBytes)/1e6)

	// Cold start: exec → ready, and the resident high-water mark at that
	// moment, each the best of coldStarts. The start is a one-shot figure
	// under a second that holds no bound, so it is a per-layer metric
	// and enters setup_s. The resident size depends on where the
	// collector happened to be when loading ended (two modes 20 % apart
	// on the reference box); the smallest of coldStarts draws finds the
	// lower mode in all but a few runs, which a quartile does not see.
	// The last deployment serves the run; the earlier ones carry the
	// debug listener the live heap is read from, so that the servers
	// the latencies are measured on run exactly as a user starts them.
	var dep *deployment
	var colds, rss, heaps []float64
	for i := 0; i < coldStarts; i++ {
		if dep != nil {
			h.undeploy(dep)
		}
		debug := i < coldStarts-1
		d, took, err := deploy(h, spec, index, probe, serveWorkers, debug)
		if err != nil {
			return nil, err
		}
		dep = d
		colds = append(colds, took.Seconds())
		kb, err := dep.sum(func(p *proc) (float64, error) { return p.procStatusKB("VmHWM") })
		if err != nil {
			return nil, err
		}
		rss = append(rss, kb/1024)
		if debug {
			mb, err := heapLiveMB(probe, dep)
			if err != nil {
				return nil, err
			}
			heaps = append(heaps, mb)
		}
	}
	coldstartS, rssMB, heapMB := minOf(colds), minOf(rss), minOf(heaps)

	clients := make([]*httpDoer, clientCount())
	if spec.traffic == trafficChurn && len(clients) < 2 {
		clients = make([]*httpDoer, 2) // churn's phase B needs a writer beside a reader
	}
	for i := range clients {
		clients[i] = newHTTPDoer(dep.front.base)
		defer clients[i].close()
	}
	one := clients[:1]

	// warmup_s: the probe pass on every client — connections opened,
	// arenas grown, and the first client's answers kept: they are what
	// the quality metrics are computed from — then, on the churn
	// workload, the cache filled with the hot set.
	res := &e2eResult{metrics: map[string]measured{}, diag: map[string]measured{}, lakeDir: lakeDir}
	warmStart := time.Now()
	var phProbe phaseResult
	for i, c := range clients {
		ops := in.probePass()
		if i > 0 {
			ops = ops[:len(ops)/4] // cache hits: enough to open the connection
		}
		r := runPass([]*httpDoer{c}, ops, i == 0)
		if i == 0 {
			phProbe.add(ops, r)
		}
		res.attempted += len(ops)
		res.failures = append(res.failures, r.failed...)
	}
	if spec.traffic != trafficCold {
		warm := in.hotPass(2 * spec.targets)
		r := runPass(one, warm, false)
		res.attempted += len(warm)
		res.failures = append(res.failures, r.failed...)
	}
	warmupS := time.Since(warmStart).Seconds()
	logf("set-up: coldstart_s %.3f (best of %v)  rss when ready %.1f MB (smallest of %v)  live heap %.2f MB (of %v)  warmup_s %.3f", coldstartS, round3(colds), rssMB, round3(rss), heapMB, round3(heaps), warmupS)

	cpu0, err := dep.sum((*proc).cpuSeconds)
	if err != nil {
		return nil, err
	}

	// --- phase A: latency, one client ---
	var phA, phB, phW phaseResult
	statsA0, err := getStatsz(probe, dep.front.base)
	if err != nil {
		return nil, err
	}
	shift := 1
	for p := 0; p < spec.passesA; p++ {
		ops := in.latencyPass(spec, shift)
		shift++
		phA.add(ops, runPass(one, ops, p == 0))
	}
	statsA1, err := getStatsz(probe, dep.front.base)
	if err != nil {
		return nil, err
	}
	logPhase(logf, "A", &phA)

	// --- phase B: saturation, C clients ---
	for p := 0; p < spec.passesB; p++ {
		switch spec.traffic {
		case trafficCold:
			ops := in.coldPass(spec.slots, shift)
			shift++
			phB.add(ops, runPass(clients, ops, false))
		case trafficChurn:
			ops, r := runChurnB(clients, in)
			phB.add(ops, r)
		}
	}
	logPhase(logf, "B", &phB)

	// --- phase W: writes, one client (churn takes its writes from A) ---
	for p := 0; p < spec.passesW; p++ {
		ops := in.writePass()
		phW.add(ops, runPass(one, ops, false))
	}
	writes := &phW
	if spec.traffic == trafficChurn {
		writes = &phA
	} else {
		logPhase(logf, "W", &phW)
	}

	// --- counters the binary already keeps ---
	statsEnd, err := getStatsz(probe, dep.front.base)
	if err != nil {
		return nil, err
	}
	cpu1, err := dep.sum((*proc).cpuSeconds)
	if err != nil {
		return nil, err
	}
	measuredOps := phA.attempted() + phB.attempted() + phW.attempted()
	waitMS, err := admissionWaitMS(probe, dep.front.base)
	if err != nil {
		return nil, err
	}
	peakKB, err := dep.sum(func(p *proc) (float64, error) { return p.procStatusKB("VmHWM") })
	if err != nil {
		return nil, err
	}
	if statsEnd.Rejected+statsEnd.Timeouts > 0 {
		res.failures = append(res.failures, fmt.Sprintf("server rejected %d and timed out %d requests", statsEnd.Rejected, statsEnd.Timeouts))
	}
	if cfg.trace {
		// A traced run also times pure result-cache hits over real
		// loopback HTTP; minus the in-process handler time of a hit
		// that is the transport's share of every request.
		hot, failed := hotProbe(one[0], in)
		res.hotHitMS = hot
		res.attempted += hotProbeReads
		res.failures = append(res.failures, failed...)
	}
	h.undeploy(dep)
	if cfg.trace {
		// And the latency phase once more against the topology as it
		// ships, with the engine's default parallelism.
		ph, err := defaultWorkersProbe(h, spec, in, index, probe)
		if err != nil {
			return nil, err
		}
		res.attempted += ph.attempted()
		res.failures = append(res.failures, ph.failed...)
		minima := slotMinima(ph.lat, ph.isRead)
		n := len(minima) * len(ph.lat)
		res.diag["run.default_workers_p50_ms"] = measured{quantile(minima, 0.5), n}
		res.diag["run.default_workers_p90_ms"] = measured{quantile(minima, 0.9), n}
		res.diag["run.default_workers_speedup"] = measured{mean(slotMinima(phA.lat, phA.isRead)) / mean(minima), n}
	}

	// --- correctness: the probe answers and pass 0 of phase A against
	// the in-process oracle ---
	or, err := newOracle(lakeDerivedTables)
	if err != nil {
		return nil, err
	}
	wrong, err := or.verify(&phProbe)
	if err != nil {
		return nil, err
	}
	wrongA, err := or.verify(&phA)
	if err != nil {
		return nil, err
	}
	wrong = append(wrong, wrongA...)
	precision, recall, scored := quality(in, &phProbe)

	res.attempted += measuredOps
	for _, ph := range []*phaseResult{&phA, &phB, &phW} {
		res.failures = append(res.failures, ph.failed...)
	}
	res.failures = append(res.failures, wrong...)

	reads := phA.count(phA.isRead)
	minimaA := slotMinima(phA.lat, phA.isRead)
	writeMinima := slotMinima(writes.lat, writes.isWrite)
	res.meanSlotMinMS = mean(minimaA)
	res.hitShareA = hitRatio(statsA0, statsA1)

	m := res.metrics
	m["setup_s"] = measured{lakeWriteS + indexBuildS + coldstartS + warmupS, 1}
	m["index_build_s"] = measured{indexBuildS, len(builds)}
	m["snapshot_mb"] = measured{float64(snapshotBytes) / 1e6, 1}
	m["rss_mb"] = measured{rssMB, len(rss)}
	m["heap_live_mb"] = measured{heapMB, len(heaps)}
	m["query_p50_ms"] = measured{quantile(minimaA, 0.5), reads * len(phA.lat)}
	m["query_p90_ms"] = measured{quantile(minimaA, 0.9), reads * len(phA.lat)}
	m["query_loaded_p50_ms"] = measured{quantile(slotMinima(phB.lat, phB.isRead), 0.5), phB.count(phB.isRead) * len(phB.lat)}
	m["write_p50_ms"] = measured{quantile(writeMinima, 0.5), len(writeMinima) * len(writes.lat)}
	m["precision_at_k"] = measured{precision, scored}
	m["recall_at_k"] = measured{recall, scored}
	m["answer_ok_ratio"] = measured{1 - float64(len(res.failures))/float64(res.attempted), res.attempted}

	d := res.diag
	allA := flatten(phA.lat, phA.isRead)
	d["run.noise_ratio"] = measured{noiseRatio(phA.lat, phA.isRead), len(allA)}
	d["run.query_p99_raw_ms"] = measured{quantile(allA, 0.99), len(allA)}
	d["run.query_p50_raw_ms"] = measured{quantile(allA, 0.5), len(allA)}
	d["run.ops"] = measured{float64(res.attempted), 1}
	d["server.cache_hit_ratio"] = measured{hitRatio(statsA0, statsEnd), measuredOps}
	d["server.cache_hit_ratio_phase_a"] = measured{res.hitShareA, reads * len(phA.lat)}
	d["server.stage_admission_wait_ms"] = measured{waitMS, measuredOps}
	d["server.cpu_ms_per_op"] = measured{(cpu1 - cpu0) * 1000 / float64(measuredOps), measuredOps}
	d["server.coldstart_s"] = measured{coldstartS, len(colds)}
	d["server.rss_peak_mb"] = measured{peakKB / 1024, 1}
	d["run.qps_best_pass"] = measured{phB.bestQPS(), phB.count(phB.isRead) * len(phB.lat)}
	return res, nil
}

func logPhase(logf func(string, ...any), name string, ph *phaseResult) {
	if len(ph.lat) == 0 {
		return
	}
	walls := make([]float64, len(ph.walls))
	for i, w := range ph.walls {
		walls[i] = w.Seconds()
	}
	logf("phase %s: %d passes x %d slots, pass wall %v s, %d failed", name, len(ph.lat), len(ph.ops), round3(walls), len(ph.failed))
}

func round3(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out
}

// treeSize is the size of a file, or of every file under a directory.
func treeSize(path string) (int64, error) {
	var total int64
	err := filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() && strings.HasSuffix(info.Name(), ".d3l") {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runChurnB is one saturation pass of the churn workload: the last
// client writes while the others share the reads of the hot set. The
// writer is paced by the readers' progress, not by the clock — one
// write after every churnReadsPerWriteB completed reads — so a pass is
// the same operations on any machine; only which reads race each write
// is left to the scheduler. Only the reads are slots.
func runChurnB(clients []*httpDoer, in *inputs) ([]op, passResult) {
	reads := in.hotPass(churnWritesB * churnReadsPerWriteB)
	writes := in.writeOps()
	readers, writer := clients[:len(clients)-1], clients[len(clients)-1]
	due := make(chan struct{}, churnWritesB) // one token per write that is due; sized to the number of sends
	var done atomic.Int64
	var wg sync.WaitGroup
	var writeFailed []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for range due {
			o := &writes[n%3]
			status, body, err := writer.do(o)
			if msg := failure(o, status, body, err); msg != "" {
				writeFailed = append(writeFailed, "writer: "+msg)
			}
			n++
		}
	}()
	r := runPassNotify(readers, reads, false, func() {
		if done.Add(1)%churnReadsPerWriteB == 0 {
			due <- struct{}{}
		}
	})
	close(due)
	wg.Wait()
	r.failed = append(r.failed, writeFailed...)
	return reads, r
}

// defaultWorkersProbe starts the topology with the -workers default
// (GOMAXPROCS: a query fans out over every core) and runs the latency
// phase against it, defaultWorkersPasses passes. This is the shipped
// configuration, which the gated phases do not run because its latency
// follows the busier of the cores (see serveWorkers); its figures are
// per-layer metrics.
func defaultWorkersProbe(h *harness, spec workloadSpec, in *inputs, index string, probe *http.Client) (*phaseResult, error) {
	dep, _, err := deploy(h, spec, index, probe, "0", false)
	if err != nil {
		return nil, err
	}
	defer h.undeploy(dep)
	c := newHTTPDoer(dep.front.base)
	defer c.close()
	one := []*httpDoer{c}
	// A new process has empty caches: warm the hot set as the run did;
	// cold passes start over at shift 1.
	if spec.traffic != trafficCold {
		runPass(one, in.hotPass(2*spec.targets), false)
	}
	var ph phaseResult
	for p := 0; p < defaultWorkersPasses; p++ {
		ops := in.latencyPass(spec, 1+p)
		ph.add(ops, runPass(one, ops, false))
	}
	return &ph, nil
}

// hotProbe times result-cache hits over HTTP: a handful of fresh
// bodies, warmed once, then asked hotProbeReads times in hotProbePasses
// passes; the answer is the mean of the per-slot minima in ms.
func hotProbe(c *httpDoer, in *inputs) (float64, []string) {
	n := min(16, len(in.sources))
	base := make([]op, n)
	for i := range base {
		base[i] = in.readOp(i, maxShift-1)
	}
	runPass([]*httpDoer{c}, base, false)
	const passes = hotProbePasses
	ops := make([]op, hotProbeReads/passes)
	for i := range ops {
		ops[i] = base[i%n]
	}
	var ph phaseResult
	for p := 0; p < passes; p++ {
		ph.add(ops, runPass([]*httpDoer{c}, ops, false))
	}
	return mean(slotMinima(ph.lat, ph.isRead)), ph.failed
}
