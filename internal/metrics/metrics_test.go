package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the le semantics at exact bucket
// bounds: an observation equal to a bound belongs to that bound's
// bucket, one ulp above it belongs to the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0},
		{0.0009999, 0},
		{0.001, 0}, // exactly at the bound: le includes it
		{math.Nextafter(0.001, 2), 1},
		{0.01, 1},
		{0.05, 2},
		{0.1, 2},
		{1, 3},
		{math.Nextafter(1, 2), 4}, // above every bound: +Inf bucket
		{1e9, 4},
	}
	for _, c := range cases {
		h := NewHistogram("t_seconds", "t", bounds)
		h.Observe(c.v)
		for i := range h.counts {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", c.v, i, got, want)
			}
		}
	}
}

// observations is the number of values h has recorded.
func observations(h *Histogram) uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestHistogramSumCount(t *testing.T) {
	h := NewHistogram("t_seconds", "t", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 2.5, 0.25} {
		h.Observe(v)
	}
	if got := observations(h); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if got := h.Sum(); math.Abs(got-4.75) > 1e-12 {
		t.Errorf("Sum = %v, want 4.75", got)
	}
}

// TestConcurrentRecording hammers one histogram from many goroutines;
// under -race this proves it is safe on the hot path, and the final
// totals prove no update was lost.
func TestConcurrentRecording(t *testing.T) {
	const workers, perWorker = 8, 10000
	h := NewHistogram("t_seconds", "t", []float64{0.25, 0.5, 0.75})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	wg.Wait()
	if got := observations(h); got != workers*perWorker {
		t.Errorf("histogram Count = %d, want %d", got, workers*perWorker)
	}
	// Each worker observes 0, 0.25, 0.5, 0.75 in rotation: sum is exact
	// in binary floating point, so equality is safe.
	want := float64(workers) * (perWorker / 4) * (0 + 0.25 + 0.5 + 0.75)
	if got := h.Sum(); got != want {
		t.Errorf("histogram Sum = %v, want %v", got, want)
	}
}

// TestExpositionFormat pins the text format: HELP/TYPE headers written
// once per family, cumulative buckets, +Inf, sum and count lines, and
// label rendering.
func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	c := CollectorFunc(func(w *Writer) { w.Counter("app_requests_total", "Requests served.", 3) })
	g := CollectorFunc(func(w *Writer) { w.Gauge("app_in_flight", "In-flight requests.", 2) })
	h := NewHistogram("app_latency_seconds", "Request latency.", []float64{0.1, 1}, Label{Name: "endpoint", Value: "topk"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	reg.MustRegister(c, g, h)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total 3
# HELP app_in_flight In-flight requests.
# TYPE app_in_flight gauge
app_in_flight 2
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{endpoint="topk",le="0.1"} 1
app_latency_seconds_bucket{endpoint="topk",le="1"} 2
app_latency_seconds_bucket{endpoint="topk",le="+Inf"} 3
app_latency_seconds_sum{endpoint="topk"} 5.55
app_latency_seconds_count{endpoint="topk"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramVec verifies all declared children exist from
// construction (zero-valued series are present in the exposition) and
// share one family header.
func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec("app_stage_seconds", "Stage timings.", []float64{1}, "stage", "gather", "score")
	v.With("gather").Observe(0.5)
	reg := NewRegistry()
	reg.MustRegister(v)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE app_stage_seconds histogram"); n != 1 {
		t.Errorf("want exactly one TYPE header, got %d in:\n%s", n, out)
	}
	for _, series := range []string{
		`app_stage_seconds_bucket{stage="gather",le="1"} 1`,
		`app_stage_seconds_bucket{stage="score",le="1"} 0`,
		`app_stage_seconds_count{stage="score"} 0`,
	} {
		if !strings.Contains(out, series+"\n") {
			t.Errorf("missing series %q in:\n%s", series, out)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("With on an undeclared label value should panic")
		}
	}()
	v.With("undeclared")
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(CollectorFunc(func(w *Writer) { w.Counter("app_total", "t", 1) }))
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != TextContentType {
		t.Errorf("Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "app_total 1\n") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "0leading", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should panic", name)
				}
			}()
			NewHistogram(name, "t", []float64{1})
		}()
	}
}
