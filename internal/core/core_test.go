package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"d3l/internal/mlearn"
	"d3l/internal/table"
)

func mustTable(t testing.TB, name string, cols []string, rows [][]string) *table.Table {
	t.Helper()
	tb, err := table.New(name, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// figure1Lake builds the paper's Figure 1 lake (S1, S2, S3) plus noise
// tables from unrelated domains.
func figure1Lake(t testing.TB) *table.Lake {
	lake := table.NewLake()
	add := func(tb *table.Table) {
		t.Helper()
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	add(mustTable(t, "S1",
		[]string{"Practice Name", "Address", "City", "Postcode", "Patients"},
		[][]string{
			{"Dr E Cullen", "51 Botanic Av", "Belfast", "BT7 1JL", "1202"},
			{"Blackfriars", "1a Chapel St", "Salford", "M3 6AF", "3572"},
			{"Radclife Care", "69 Church St", "Manchester", "M26 2SP", "2210"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "1894"},
		}))
	add(mustTable(t, "S2",
		[]string{"Practice", "City", "Postcode", "Payment"},
		[][]string{
			{"The London Clinic", "London", "W1G 6BW", "73648"},
			{"Blackfriars", "Salford", "M3 6AF", "15530"},
			{"Radclife Care", "Manchester", "M26 2SP", "20081"},
			{"Bolton Medical", "Bolton", "BL3 6PY", "17264"},
		}))
	add(mustTable(t, "S3",
		[]string{"GP", "Location", "Opening hours"},
		[][]string{
			{"Blackfriars", "Salford", "08:00-18:00"},
			{"Radclife Care", "-", "07:00-20:00"},
			{"Bolton Medical", "Bolton", "08:00-16:00"},
		}))
	// Noise: unrelated domains.
	add(mustTable(t, "N1",
		[]string{"Species", "Habitat", "Wingspan"},
		[][]string{
			{"Kestrel", "farmland", "76"},
			{"Barn Owl", "grassland", "89"},
			{"Goshawk", "woodland", "105"},
		}))
	add(mustTable(t, "N2",
		[]string{"ISBN", "Pages"},
		[][]string{
			{"978-0132350884", "464"},
			{"978-0201633610", "395"},
		}))
	return lake
}

func figure1Target(t testing.TB) *table.Table {
	return mustTable(t, "T",
		[]string{"Practice", "Street", "City", "Postcode", "Hours"},
		[][]string{
			{"Radclife", "69 Church St", "Manchester", "M26 2SP", "07:00-20:00"},
			{"Bolton Medical", "21 Rupert St", "Bolton", "BL3 6PY", "08:00-16:00"},
		})
}

// topK asks the default top-k query, the form most tests ask in.
func topK(e *Engine, target *table.Table, k int) ([]TableResult, error) {
	res, err := e.SearchSpec(context.Background(), target, QuerySpec{K: k})
	if err != nil {
		return nil, err
	}
	return res.Ranked, nil
}

// explain is the Table I breakdown of target against one lake table
// under the default query parameters.
func explain(e *Engine, target *table.Table, lakeTable string) ([]PairExplanation, error) {
	prepared, err := e.Prepare(target)
	if err != nil {
		return nil, err
	}
	return e.Explain(context.Background(), prepared, lakeTable, QuerySpec{})
}

// mustPrepare prepares a query target or fails the test.
func mustPrepare(t testing.TB, e *Engine, tb *table.Table) *Target {
	t.Helper()
	target, err := e.Prepare(tb)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func testOptions() Options {
	o := DefaultOptions()
	o.MaxExtentSample = 128
	return o
}

func buildFigure1Engine(t testing.TB) *Engine {
	e, err := BuildEngine(figure1Lake(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildEngineValidation(t *testing.T) {
	if _, err := BuildEngine(nil, testOptions()); err == nil {
		t.Fatal("expected error for nil lake")
	}
	bad := testOptions()
	bad.Threshold = 2
	if _, err := BuildEngine(table.NewLake(), bad); err == nil {
		t.Fatal("expected error for bad threshold")
	}
	bad = testOptions()
	bad.ForestTrees = 100
	if _, err := BuildEngine(table.NewLake(), bad); err == nil {
		t.Fatal("expected error for oversized forest layout")
	}
}

func TestEngineIndexesEverything(t *testing.T) {
	e := buildFigure1Engine(t)
	if e.NumAttributes() != 5+4+3+3+2 {
		t.Fatalf("indexed %d attributes, want 17", e.NumAttributes())
	}
	if e.Lake().Len() != 5 {
		t.Fatal("lake size wrong")
	}
	if len(e.byTable[0]) != 5 {
		t.Fatal("per-table attr ids wrong")
	}
	if s, ok := e.SubjectAttr(0); !ok || e.Profile(s).Name != "Practice Name" {
		t.Fatal("S1 subject attr should be Practice Name")
	}
	if e.IndexSpaceBytes() <= 0 {
		t.Fatal("index space should be positive")
	}
}

func TestTopKRanksRelatedAboveNoise(t *testing.T) {
	e := buildFigure1Engine(t)
	res, err := topK(e, figure1Target(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	names := make([]string, len(res))
	for i, r := range res {
		names[i] = r.Name
	}
	// S1 and S2 must appear in the top 3; noise tables must not outrank
	// them.
	top := strings.Join(names, ",")
	if !strings.Contains(top, "S2") || !strings.Contains(top, "S1") {
		t.Fatalf("top-3 = %v, want S1 and S2 present", names)
	}
	for i, r := range res {
		if r.Name == "N1" || r.Name == "N2" {
			// Noise may appear but only after the related tables.
			if i < 2 {
				t.Fatalf("noise table %s ranked %d: %v", r.Name, i, names)
			}
		}
	}
	// Distances are sorted ascending and within [0,1].
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			t.Fatal("results not sorted by distance")
		}
	}
	for _, r := range res {
		if r.Distance < 0 || r.Distance > 1 {
			t.Fatalf("distance %v out of [0,1]", r.Distance)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	e := buildFigure1Engine(t)
	if _, err := e.SearchSpec(context.Background(), nil, QuerySpec{K: 5}); err == nil {
		t.Fatal("expected error for nil target")
	}
	if _, err := e.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 0}); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestAlignmentsCoverTargetColumns(t *testing.T) {
	e := buildFigure1Engine(t)
	res, err := e.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranked {
		if r.Name != "S2" {
			continue
		}
		// S2 shares Practice, City, Postcode with T.
		coveredCols := map[int]bool{}
		for _, a := range r.Alignments {
			coveredCols[a.TargetColumn] = true
			if a.Distances[EvidenceName] > 1 || a.Distances[EvidenceName] < 0 {
				t.Fatal("alignment distance out of range")
			}
		}
		if len(coveredCols) < 3 {
			t.Fatalf("S2 alignments cover %d target columns, want >= 3", len(coveredCols))
		}
		return
	}
	t.Fatal("S2 not in top-2")
}

func TestExplainTableI(t *testing.T) {
	e := buildFigure1Engine(t)
	rows, err := explain(e, figure1Target(t), "S2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no explanation rows")
	}
	// Find the (City, City) pair: identical names mean DN == 0.
	foundCity := false
	for _, r := range rows {
		if r.TargetColumn == "City" && r.SourceColumn == "City" {
			foundCity = true
			if r.Distances[EvidenceName] != 0 {
				t.Fatalf("(City,City) DN = %v, want 0", r.Distances[EvidenceName])
			}
			if r.Distances[EvidenceValue] > 0.7 {
				t.Fatalf("(City,City) DV = %v, want low (shared values)", r.Distances[EvidenceValue])
			}
			if r.Distances[EvidenceDomain] != 1 {
				t.Fatalf("(City,City) DD = %v, want 1 (textual)", r.Distances[EvidenceDomain])
			}
		}
	}
	if !foundCity {
		t.Fatal("no (City,City) row in explanation")
	}
	out := FormatExplanation(rows)
	if !strings.Contains(out, "DN") || !strings.Contains(out, "(City,City)") {
		t.Fatalf("formatted table missing headers/rows:\n%s", out)
	}
	if _, err := explain(e, figure1Target(t), "NoSuchTable"); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestNumericDomainDistanceGuarded(t *testing.T) {
	lake := table.NewLake()
	rng := rand.New(rand.NewSource(1))
	mkRows := func(scale float64, names []string) [][]string {
		rows := make([][]string, 60)
		for i := range rows {
			v := rng.NormFloat64()*scale + 10*scale
			rows[i] = []string{names[i%len(names)], fmtF(v)}
		}
		return rows
	}
	t1 := mustTable(t, "gps_a", []string{"Practice", "Patients"},
		mkRows(100, []string{"Blackfriars", "Radclife Care", "Bolton Medical", "Oak Surgery", "Elm Practice", "Ash Clinic"}))
	t2 := mustTable(t, "gps_b", []string{"Practice", "Patients"},
		mkRows(100, []string{"Blackfriars", "Radclife Care", "Bolton Medical", "Firs Surgery", "Yew Practice", "Holly Clinic"}))
	t3 := mustTable(t, "birds", []string{"Species", "Wingspan"},
		mkRows(1, []string{"Kestrel", "Barn Owl", "Goshawk", "Sparrowhawk", "Merlin", "Hobby"}))
	for _, tb := range []*table.Table{t2, t3} {
		if _, err := lake.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchSpec(context.Background(), t1, QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var gpsVec, birdsVec *DistanceVector
	for i := range res.Ranked {
		switch res.Ranked[i].Name {
		case "gps_b":
			gpsVec = &res.Ranked[i].Vector
		case "birds":
			birdsVec = &res.Ranked[i].Vector
		}
	}
	if gpsVec == nil {
		t.Fatal("gps_b not retrieved")
	}
	// Same name + shared subject values: the Algorithm 2 guard passes
	// and KS over same-distribution extents is small.
	if (*gpsVec)[EvidenceDomain] >= 0.9 {
		t.Fatalf("gps_b DD = %v, want guarded KS < 0.9", (*gpsVec)[EvidenceDomain])
	}
	if birdsVec != nil && (*birdsVec)[EvidenceDomain] < 1 {
		// Different subject, different names, different format... the
		// guard should have kept DD at 1 or KS near 1 (disjoint scales).
		if (*birdsVec)[EvidenceDomain] < 0.5 {
			t.Fatalf("birds DD = %v, want high", (*birdsVec)[EvidenceDomain])
		}
	}
}

func fmtF(v float64) string {
	// strconv-free float formatting for test fixtures
	neg := v < 0
	if neg {
		v = -v
	}
	whole := int(v)
	frac := int((v - float64(whole)) * 100)
	s := itoa(whole) + "." + itoa(frac)
	if neg {
		return "-" + s
	}
	return s
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestDisabledEvidence(t *testing.T) {
	e := buildFigure1Engine(t)
	var disabled [NumEvidence]bool
	for ev := range disabled {
		disabled[ev] = Evidence(ev) != EvidenceValue // value-only query
	}
	res, err := e.SearchSpec(context.Background(), figure1Target(t), QuerySpec{K: 5, Disabled: &disabled})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Ranked {
		if r.Vector[EvidenceName] != 1 || r.Vector[EvidenceFormat] != 1 {
			t.Fatal("disabled evidence should aggregate to distance 1")
		}
	}
	// S2 shares instance values with T, so it must still be found.
	found := false
	for _, r := range res.Ranked {
		if r.Name == "S2" {
			found = true
		}
	}
	if !found {
		t.Fatal("value-only query should still retrieve S2")
	}
}

func TestPairDistancesSymmetricGuards(t *testing.T) {
	e := buildFigure1Engine(t)
	// numeric vs text pair: V and E must be 1.
	var patients *Profile
	city := -1
	for _, id := range e.byTable[0] {
		p := e.Profile(id)
		if p.Name == "Patients" {
			patients = &p
		}
		if p.Name == "City" {
			city = id
		}
	}
	if patients == nil || city < 0 {
		t.Fatal("fixture columns missing")
	}
	coded := e.pairDistances(patients, nil, city, [NumEvidence]bool{}, nil)
	d := e.grid.vector(&coded)
	if d[EvidenceValue] != 1 || d[EvidenceEmbedding] != 1 || d[EvidenceDomain] != 1 {
		t.Fatalf("numeric-text pair should have V=E=D=1, got %v", d)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	e := buildFigure1Engine(t)
	column := func(tid int, name string) int {
		for _, id := range e.byTable[tid] {
			if e.Profile(id).Name == name {
				return id
			}
		}
		t.Fatalf("fixture: table %d has no column %s", tid, name)
		return -1
	}
	s2Practice, s3GP, s1Postcode := column(1, "Practice"), column(2, "GP"), column(0, "Postcode")
	// S2.Practice and S3.GP share practice names: high overlap.
	ovHigh := e.OverlapCoefficient(s2Practice, s3GP)
	ovLow := e.OverlapCoefficient(s2Practice, s1Postcode)
	if ovHigh <= ovLow {
		t.Fatalf("ov(Practice,GP)=%v should exceed ov(Practice,Postcode)=%v", ovHigh, ovLow)
	}
	if ovHigh < 0.3 {
		t.Fatalf("ov(Practice,GP)=%v, want substantial", ovHigh)
	}

	// OverlapCoefficient reads J off the distance grid; it must be the
	// float the formula gives from the float Jaccard estimate, bit for
	// bit, over every attribute pair of the fixture and over random
	// signature pairs, empty ones among them. A slot drawn from an
	// alphabet of one to eight values agrees with another's often enough
	// to cover J from 0 to 1.
	rng := rand.New(rand.NewSource(62))
	var random []*Profile
	for i := 0; i < 40; i++ {
		sig := constSig(math.MaxUint32) // the empty set's
		if i%8 != 0 {
			k := 1 + rng.Intn(8)
			for s := range sig {
				sig[s] = uint32(rng.Intn(k))
			}
		}
		random = append(random, &Profile{QSig: constSig(1), RSig: constSig(2), TSig: sig, TSize: 1 + rng.Intn(500)})
	}
	adopt(e, random...)
	for a := range e.attrs {
		for b := range e.attrs {
			ra, rb := &e.attrs[a], &e.attrs[b]
			want := 0.0
			if !ra.is(attrNumeric) && !rb.is(attrNumeric) && ra.tSize > 0 && rb.tSize > 0 {
				j := jaccardSimilarity(e.sigs.sig(ra.t), e.sigs.sig(rb.t))
				inter := j * float64(ra.tSize+rb.tSize) / (1 + j)
				want = min(max(inter/float64(min(ra.tSize, rb.tSize)), 0), 1)
			}
			if got := e.OverlapCoefficient(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ov(%d, %d) = %v, the float formula gives %v", a, b, got, want)
			}
		}
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	var zero Weights
	if err := zero.Validate(); err == nil {
		t.Fatal("expected error for all-zero weights")
	}
	neg := DefaultWeights()
	neg[0] = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestTrainWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pairs []LabelledPair
	for i := 0; i < 400; i++ {
		related := i%2 == 0
		var v DistanceVector
		for t := 0; t < int(NumEvidence); t++ {
			if related {
				v[t] = rng.Float64() * 0.4
			} else {
				v[t] = 0.6 + rng.Float64()*0.4
			}
		}
		// Make V most diagnostic, F noise.
		if related {
			v[EvidenceValue] = rng.Float64() * 0.2
		}
		v[EvidenceFormat] = rng.Float64()
		pairs = append(pairs, LabelledPair{Vector: v, Related: related})
	}
	w, acc, err := TrainWeights(pairs, mlearn.Options{Iterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("training accuracy %v, want >= 0.9", acc)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w[EvidenceValue] <= w[EvidenceFormat] {
		t.Fatalf("value weight %v should exceed noisy format weight %v", w[EvidenceValue], w[EvidenceFormat])
	}
	if _, _, err := TrainWeights(nil, mlearn.Options{}); err == nil {
		t.Fatal("expected error for no pairs")
	}
}

func TestEvidenceString(t *testing.T) {
	want := []string{"N", "V", "F", "E", "D"}
	for i := 0; i < int(NumEvidence); i++ {
		if Evidence(i).String() != want[i] {
			t.Fatalf("Evidence(%d) = %s", i, Evidence(i))
		}
	}
	if Evidence(99).String() == "" {
		t.Fatal("unknown evidence should still print")
	}
}

func TestMaxDistancesAndMean(t *testing.T) {
	m := maxDistances()
	for _, v := range m {
		if v != 1 {
			t.Fatal("maxDistances should be all ones")
		}
	}
	if m.mean() != 1 {
		t.Fatal("mean of all-ones should be 1")
	}
}

func BenchmarkBuildEngineFigure1(b *testing.B) {
	lake := figure1Lake(b)
	opts := testOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildEngine(lake, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchFigure1(b *testing.B) {
	lake := figure1Lake(b)
	e, err := BuildEngine(lake, testOptions())
	if err != nil {
		b.Fatal(err)
	}
	target := figure1Target(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SearchSpec(context.Background(), target, QuerySpec{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
