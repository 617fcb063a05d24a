package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// httpDoer is one closed-loop client: one kept-alive connection, one
// request in flight.
type httpDoer struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPDoer(base string) *httpDoer {
	return &httpDoer{
		base: base,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
			Timeout:   time.Minute,
		},
	}
}

// do returns a body that is only valid until the next call.
func (d *httpDoer) do(o *op) (int, []byte, error) {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, d.base+o.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, d.buf.Bytes(), nil
}

func (d *httpDoer) close() { d.client.CloseIdleConnections() }

// passResult is what one pass measured: per-slot latency in
// milliseconds, the wall time of the whole pass, and the failures.
type passResult struct {
	lat    []float64
	wall   time.Duration
	failed []string // one message per failed op
	// bodies holds the answers of read slots when the pass was run
	// with keep; the oracle checks them after the phase.
	bodies [][]byte
}

// quietGC keeps the collector of the benchmark process out of the timed
// region: it collects now, then disables collection until the returned
// function runs. A pass allocates a few MB at most.
func quietGC() func() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// quietly runs fn with the collector held off.
func quietly(fn func() error) error {
	defer quietGC()()
	return fn()
}

// runPass executes ops over the clients: client c takes slots c, c+C,
// c+2C, ... in order, each waiting for its answer before sending the
// next. With one client this is the latency phase; with several it is
// the saturation phase. A non-2xx answer or a transport error is a
// failed op; with keep, read answers are retained for the oracle.
func runPass(clients []*httpDoer, ops []op, keep bool) passResult {
	return runPassNotify(clients, ops, keep, func() {})
}

// runPassNotify is runPass calling completed after every op, on the
// goroutine of the client that ran it.
func runPassNotify(clients []*httpDoer, ops []op, keep bool, completed func()) passResult {
	res := passResult{lat: make([]float64, len(ops))}
	if keep {
		res.bodies = make([][]byte, len(ops))
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	defer quietGC()()
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := clients[c]
			for i := c; i < len(ops); i += len(clients) {
				o := &ops[i]
				t0 := time.Now()
				status, body, err := d.do(o)
				res.lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				completed()
				if msg := failure(o, status, body, err); msg != "" {
					mu.Lock()
					res.failed = append(res.failed, fmt.Sprintf("slot %d: %s", i, msg))
					mu.Unlock()
					continue
				}
				if keep && !o.write {
					res.bodies[i] = append([]byte(nil), body...)
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// failure classifies one answer; "" means the op succeeded.
func failure(o *op, status int, body []byte, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s %s: %v", o.method, o.path, err)
	case status < 200 || status > 299:
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Sprintf("%s %s: status %d: %s", o.method, o.path, status, body)
	case !o.write && !bytes.HasPrefix(body, []byte(`{"results":[{`)):
		// Every read of this benchmark queries a window of a lake
		// table, so an empty ranking is a wrong answer.
		return fmt.Sprintf("%s %s: answer has no results", o.method, o.path)
	}
	return ""
}

// phaseResult accumulates the passes of one phase.
type phaseResult struct {
	ops    []op // slot layout (identical in every pass)
	lat    [][]float64
	walls  []time.Duration
	failed []string
	first  [][]byte // pass-0 read answers
}

func (ph *phaseResult) add(ops []op, r passResult) {
	if ph.ops == nil {
		ph.ops = ops
		ph.first = r.bodies
	}
	ph.lat = append(ph.lat, r.lat)
	ph.walls = append(ph.walls, r.wall)
	ph.failed = append(ph.failed, r.failed...)
}

func (ph *phaseResult) attempted() int { return len(ph.lat) * len(ph.ops) }

func (ph *phaseResult) isRead(slot int) bool  { return !ph.ops[slot].write }
func (ph *phaseResult) isWrite(slot int) bool { return ph.ops[slot].write }

func (ph *phaseResult) count(keep func(int) bool) int {
	n := 0
	for s := range ph.ops {
		if keep(s) {
			n++
		}
	}
	return n
}

// bestQPS is the read throughput of the fastest pass.
func (ph *phaseResult) bestQPS() float64 {
	best := ph.walls[0]
	for _, w := range ph.walls {
		if w < best {
			best = w
		}
	}
	return float64(ph.count(ph.isRead)) / best.Seconds()
}
