package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one request share Request; Parent is
// the ID of the span that caused this one, or -1.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the trace began
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, request int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Request: request})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// closed records a span that has already ended, of length d — how the
// engine's stage observer reports its stages.
func (t *tracer) closed(name string, parent, request int, d time.Duration) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: now - int64(d), End: now, Parent: parent, Request: request})
}

// ms is the duration of a span in milliseconds.
func (t *tracer) ms(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[id].End-t.spans[id].Start) / 1e6
}

// do times fn as one span and returns its duration in milliseconds.
func (t *tracer) do(name string, parent, request int, fn func()) float64 {
	id := t.begin(name, parent, request)
	fn()
	t.end(id)
	return t.ms(id)
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	MS     float64 `json:"ms"`
	SelfMS float64 `json:"self_ms"` // span time minus the time of its child spans
}

// selfTimes aggregates the spans by name.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.MS += float64(d) / 1e6
		lt.SelfMS += float64(d-children[s.ID]) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write stores the spans and their per-name summary as JSON.
func (t *tracer) write(path string) error {
	layers := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
