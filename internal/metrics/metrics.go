// Package metrics is a zero-dependency metrics registry exposing the
// Prometheus text exposition format (version 0.0.4). Its one instrument
// is the fixed-bucket histogram, backed by atomics, so recording on the
// query hot path is lock-free and allocation-free; counters and gauges
// are samples a collector writes from state it already keeps.
//
// The package deliberately does not implement the full Prometheus
// client feature set (no dynamic label cardinality, no summaries, no
// exemplars): every series is declared up front at registration, which
// keeps recording O(1) with zero map lookups and means a scrape always
// exposes the complete, stable series set — the property the golden
// exposition test and the CI serving gate both pin. Dashboards can rely
// on a series existing from process start, not from first observation.
//
// Exposition is collector-based: a Collector emits its families into a
// Writer at scrape time. Histograms are collectors over their own
// atomic state; callers with external counters (the server's statsz
// struct) register a CollectorFunc that snapshots them through one code
// path, so /metrics and any JSON view of the same counters can never
// disagree about what was read.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair of a series.
type Label struct {
	Name  string
	Value string
}

// Collector emits zero or more metric families into a Writer at scrape
// time. All samples of one family must be emitted consecutively (the
// Writer writes the # HELP/# TYPE header when the family name changes).
type Collector interface {
	Collect(w *Writer)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(w *Writer)

// Collect implements Collector.
func (f CollectorFunc) Collect(w *Writer) { f(w) }

// Registry holds an ordered set of collectors and renders them as one
// text-format exposition. Registration order is exposition order, so
// the output is deterministic and golden-testable.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// MustRegister appends collectors to the exposition, in order.
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, cs...)
}

// WriteText renders the full exposition to w.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	cs := r.collectors
	r.mu.Unlock()
	pw := &Writer{}
	for _, c := range cs {
		c.Collect(pw)
	}
	_, err := w.Write(pw.buf.Bytes())
	return err
}

// TextContentType is the Content-Type of the exposition format.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the exposition (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(buf.Bytes())
	})
}

// Writer accumulates exposition text. It tracks the current family so
// collectors emitting several samples of one family (histogram
// children, labelled counters) write the # HELP/# TYPE header once.
type Writer struct {
	buf        bytes.Buffer
	lastFamily string
}

func (w *Writer) header(name, help, typ string) {
	if w.lastFamily == name {
		return
	}
	w.lastFamily = name
	fmt.Fprintf(&w.buf, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.buf, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a sample value: integral values print without an
// exponent or decimal point (counters read naturally), anything else
// uses Go's shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (w *Writer) sample(name string, labels []Label, v float64) {
	w.buf.WriteString(name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			fmt.Fprintf(&w.buf, "%s=%q", l.Name, l.Value)
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatFloat(v))
	w.buf.WriteByte('\n')
}

// Counter emits one sample of a counter family. Calls for the same
// family must be consecutive; the first writes the header.
func (w *Writer) Counter(name, help string, v float64, labels ...Label) {
	w.header(name, help, "counter")
	w.sample(name, labels, v)
}

// Gauge emits one sample of a gauge family, with the same
// consecutiveness contract as Counter.
func (w *Writer) Gauge(name, help string, v float64, labels ...Label) {
	w.header(name, help, "gauge")
	w.sample(name, labels, v)
}

// Family emits a family's # HELP/# TYPE header with no samples (legal
// exposition: Prometheus treats a sample-less family as present but
// empty). Collectors whose sample set is dynamic — one gauge per
// replica of a replicated backend, say — use it so the family always
// appears in a scrape and "family missing" stays a sound fail-closed
// gate even when there are zero members. typ must be "counter",
// "gauge" or "histogram".
func (w *Writer) Family(name, help, typ string) {
	w.header(name, help, typ)
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds (le semantics: an observation lands in the first bucket whose
// bound is >= the value; +Inf is implicit). Observe is lock-free: one
// atomic add on the bucket counter and a CAS loop on the sum, so
// concurrent recording on the query hot path never serialises.
//
// Buckets are fixed at construction rather than adaptive by design:
// recording stays branch-light and allocation-free, the exposition is
// stable enough to golden-test, and cross-run comparisons (the CI SLO
// gate, committed BENCH snapshots) compare identical bucket layouts.
type Histogram struct {
	name, help string
	labels     []Label
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum        atomic.Uint64   // float64 bits
}

// NewHistogram returns a histogram with the given ascending upper
// bounds. The bounds slice is not copied; callers must not mutate it.
func NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	mustValidName(name)
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be ascending")
	}
	return &Histogram{
		name:   name,
		help:   help,
		labels: labels,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is exactly the le bucket the value belongs to;
	// values above every bound land in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Collect implements Collector.
func (h *Histogram) Collect(w *Writer) {
	w.header(h.name, h.help, "histogram")
	var cum uint64
	le := make([]Label, len(h.labels)+1)
	copy(le, h.labels)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le[len(h.labels)] = Label{Name: "le", Value: formatFloat(b)}
		w.sample(h.name+"_bucket", le, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	le[len(h.labels)] = Label{Name: "le", Value: "+Inf"}
	w.sample(h.name+"_bucket", le, float64(cum))
	w.sample(h.name+"_sum", h.labels, h.Sum())
	w.sample(h.name+"_count", h.labels, float64(cum))
}

// HistogramVec is a family of histograms partitioned by one label. All
// children are created up front from the declared label values, so the
// full series set exists (at zero) from registration — a scrape never
// depends on which stages have run yet.
type HistogramVec struct {
	children []*Histogram
	byValue  map[string]*Histogram
}

// NewHistogramVec returns a histogram family with one child per label
// value, all sharing the bounds.
func NewHistogramVec(name, help string, bounds []float64, labelName string, values ...string) *HistogramVec {
	if len(values) == 0 {
		panic("metrics: HistogramVec needs at least one label value")
	}
	v := &HistogramVec{byValue: make(map[string]*Histogram, len(values))}
	for _, lv := range values {
		h := NewHistogram(name, help, bounds, Label{Name: labelName, Value: lv})
		v.children = append(v.children, h)
		v.byValue[lv] = h
	}
	return v
}

// With returns the child for the label value; it panics on an
// undeclared value (series are fixed at construction).
func (v *HistogramVec) With(value string) *Histogram {
	h, ok := v.byValue[value]
	if !ok {
		panic("metrics: undeclared HistogramVec label value " + strconv.Quote(value))
	}
	return h
}

// Collect implements Collector: all children render as one family.
func (v *HistogramVec) Collect(w *Writer) {
	for _, h := range v.children {
		h.Collect(w)
	}
}

// mustValidName enforces the Prometheus metric-name charset at
// construction, where a violation is a programming error.
func mustValidName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic("metrics: invalid metric name " + strconv.Quote(name))
		}
	}
}
