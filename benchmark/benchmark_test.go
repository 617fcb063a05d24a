package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testTables keeps the generated lake small: the tests check the
// request generator and the oracle, not the engine at scale.
const testTables = 300

func testInputs(t *testing.T, seed uint64, n int) *inputs {
	t.Helper()
	in, err := generate(seed, testTables, n)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func bodiesOf(passes ...[]op) [][]byte {
	var out [][]byte
	for _, ops := range passes {
		for _, o := range ops {
			out = append(out, []byte(o.method+" "+o.path+" "+string(o.body)))
		}
	}
	return out
}

// The same seed must put the same bytes on the wire, and another seed
// other bytes.
func TestSameSeedSameRequests(t *testing.T) {
	sequence := func(seed uint64) [][]byte {
		in := testInputs(t, seed, 16)
		return bodiesOf(in.coldPass(16, 1), in.coldPass(16, 2), in.hotPass(40), in.churnPass(), in.writePass())
	}
	a, b, c := sequence(7), sequence(7), sequence(8)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d requests", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two generations of seed 7", i)
		}
	}
	same := 0
	for i := range a {
		if i < len(c) && bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	// Only the body-less DELETE of the scratch table is seed-independent.
	if same > len(a)/10 {
		t.Fatalf("%d of %d requests are identical under seeds 7 and 8", same, len(a))
	}
}

// Cold means cold by construction: no two read requests of a run's
// cold passes, warm-up included, share a body.
func TestColdBodiesDistinct(t *testing.T) {
	in := testInputs(t, 11, 20)
	seen := map[string]int{}
	for shift := 0; shift < maxShift; shift++ {
		for i, o := range in.coldPass(20, shift) {
			if prev, dup := seen[string(o.body)]; dup {
				t.Fatalf("slot %d at shift %d repeats the body first sent at shift %d", i, shift, prev)
			}
			seen[string(o.body)] = shift
		}
	}
	// And the windows of one slot cost the same to within a row.
	var first, last queryRequest
	if err := json.Unmarshal(in.readOp(0, 1).body, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(in.readOp(0, maxShift-1).body, &last); err != nil {
		t.Fatal(err)
	}
	if len(first.Table.Rows) != windowRows || len(last.Table.Rows) != windowRows || len(first.Table.Columns) != len(last.Table.Columns) {
		t.Fatalf("shifted windows differ in shape: %dx%d and %dx%d",
			len(first.Table.Rows), len(first.Table.Columns), len(last.Table.Rows), len(last.Table.Columns))
	}
}

// Slot i must be the same operation in every churn pass, and a pass
// must leave the scratch table removed.
func TestChurnPassShape(t *testing.T) {
	in := testInputs(t, 3, churnHot)
	ops := in.churnPass()
	if len(ops) != churnCycles*(1+churnReads) {
		t.Fatalf("churn pass has %d ops", len(ops))
	}
	writes := 0
	for i, o := range ops {
		if want := i%(1+churnReads) == 0; o.write != want {
			t.Fatalf("op %d: write=%v", i, o.write)
		}
		if o.write {
			writes++
		}
	}
	if writes%3 != 0 {
		t.Fatalf("%d writes do not end on a remove", writes)
	}
	if last := ops[(churnCycles-1)*(1+churnReads)]; last.method != "DELETE" {
		t.Fatalf("last write of the pass is %s", last.method)
	}
}

// The per-slot minimum sees through one-sided interference that moves
// every naive estimator.
func TestSlotMinimaRejectSpikes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const slots, passes = 200, 8
	truth := make([]float64, slots)
	for i := range truth {
		truth[i] = 2 + 10*rng.Float64() // heterogeneous targets
	}
	lat := make([][]float64, passes)
	for p := range lat {
		lat[p] = make([]float64, slots)
		burst := p%3 == 0 // a neighbour slows a whole pass by 30%
		for i := range lat[p] {
			v := truth[i] * (1 + 0.01*rng.Float64())
			if burst {
				v *= 1.3
			}
			if rng.Float64() < 0.2 {
				v += 5 + 20*rng.Float64()
			}
			lat[p][i] = v
		}
	}
	all := func(int) bool { return true }
	minima := slotMinima(lat, all)
	for _, q := range []float64{0.5, 0.9} {
		got, want := quantile(minima, q), quantile(truth, q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.0f of slot minima %.3f, truth %.3f", 100*q, got, want)
		}
		naive := quantile(flatten(lat, all), q)
		if math.Abs(naive-want)/want < 0.05 {
			t.Errorf("q%.0f: the naive estimate %.3f is not moved by the spikes; the test injects too little", 100*q, naive)
		}
	}
	if n := noiseRatio(lat, all); n < 0.1 {
		t.Errorf("noise ratio %.3f does not show the injected interference", n)
	}
	// Only some slots are reads.
	even := func(s int) bool { return s%2 == 0 }
	if got := len(slotMinima(lat, even)); got != slots/2 {
		t.Errorf("filtered minima: %d slots", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quantile(xs, 0.5); got != 5.5 {
		t.Errorf("median %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

// BENCHMARK.json and the program must declare the same workloads and
// metrics, within the limits the driver enforces.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.checkDeclared(); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("%d workloads", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}
	setup := false
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command %v", bf.Command)
	}
	// One name is used once across both lists.
	seen := map[string]bool{}
	for _, m := range append(append([]benchMetric{}, bf.EndToEnd...), bf.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared on both lists", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestScaledPasses(t *testing.T) {
	for _, w := range workloads {
		if got := w.scaled(defaultSeconds); got != w {
			t.Errorf("%s: scaling to the default length changed the spec", w.name)
		}
		for _, seconds := range []int{1, 5, 30, 60} {
			s := w.scaled(seconds)
			if s.passesA < 2 || s.passesB < 2 {
				t.Errorf("%s at %d s: %d/%d passes", w.name, seconds, s.passesA, s.passesB)
			}
			if w.traffic == trafficCold && 1+s.passesA+s.passesB > maxShift-1 {
				t.Errorf("%s at %d s: %d cold passes do not fit the shift range", w.name, seconds, s.passesA+s.passesB)
			}
		}
	}
}

// The oracle must accept the answer the library gives, and reject an
// answer that differs in one name or in the last bit of one distance.
func TestOracleCatchesCorruptedAnswer(t *testing.T) {
	in := testInputs(t, 5, 4)
	build := func() *oracle {
		or, err := newOracle(testTables)
		if err != nil {
			t.Fatal(err)
		}
		return or
	}
	// A churn-shaped slice: write, reads, write, reads — the oracle
	// must replay the writes to know what the reads should see.
	writes := in.writeOps()
	ops := []op{writes[0], in.readOp(0, 0), in.readOp(1, 0), writes[1], in.readOp(0, 0), writes[2], in.readOp(0, 0)}
	want, err := build().expect(ops)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(rs []ranked) []byte {
		type result struct {
			TableID  int     `json:"tableId"`
			Name     string  `json:"name"`
			Distance float64 `json:"distance"`
		}
		var resp struct {
			Results []result `json:"results"`
		}
		for i, r := range rs {
			resp.Results = append(resp.Results, result{i, r.Name, r.Distance})
		}
		return mustJSON(resp)
	}
	ph := &phaseResult{ops: ops, first: make([][]byte, len(ops))}
	for i, rs := range want {
		if ops[i].write {
			if rs != nil {
				t.Fatalf("slot %d: a write has a reference ranking", i)
			}
			continue
		}
		if len(rs) == 0 {
			t.Fatalf("slot %d: empty reference ranking", i)
		}
		ph.first[i] = serve(rs)
	}
	if wrong, err := build().verify(ph); err != nil || len(wrong) != 0 {
		t.Fatalf("faithful answers rejected: %v %v", wrong, err)
	}
	for _, r := range want[6] {
		if r.Name == scratchName {
			t.Error("the removed scratch table is still in the reference answer")
		}
	}

	corrupt := append([]ranked(nil), want[1]...)
	corrupt[len(corrupt)-1].Distance = math.Nextafter(corrupt[len(corrupt)-1].Distance, 2)
	ph.first[1] = serve(corrupt)
	renamed := append([]ranked(nil), want[4]...)
	renamed[0].Name += "x"
	ph.first[4] = serve(renamed)
	ph.first[6] = serve(want[6][:len(want[6])-1])
	wrong, err := build().verify(ph)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrong) != 3 {
		t.Fatalf("3 corrupted answers, %d caught: %v", len(wrong), wrong)
	}
}

// A traced-run span tree must give each name its self time.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Name: "outer", Start: 0, End: 100e6, Parent: -1},
		{ID: 1, Name: "inner", Start: 10e6, End: 40e6, Parent: 0},
		{ID: 2, Name: "inner", Start: 50e6, End: 60e6, Parent: 0},
	}
	for _, lt := range tr.selfTimes() {
		switch lt.Name {
		case "outer":
			if lt.MS != 100 || lt.SelfMS != 60 {
				t.Errorf("outer: %v total, %v self", lt.MS, lt.SelfMS)
			}
		case "inner":
			if lt.Calls != 2 || lt.MS != 40 || lt.SelfMS != 40 {
				t.Errorf("inner: %+v", lt)
			}
		}
	}
}
