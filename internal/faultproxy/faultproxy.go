// Package faultproxy is a seed-deterministic fault-injecting HTTP
// reverse proxy, the chaos half of the coordinator's fault-tolerance
// test harness. Placed between a coordinator and a shard replica, it
// forwards requests verbatim until told otherwise, and injects —
// per-request, by deterministic coin flips from a seeded splitmix64
// stream — added latency, 5xx bursts, connection resets, truncated
// response bodies, and blackholes (accept, then never answer).
//
// Determinism: request i draws its fate from splitmix64(seed, i), so
// a given (seed, rules, request order) triple always injects the same
// fault schedule — a failing chaos run replays exactly. Rules swap
// atomically at any time (SetRules, or POST /_fault/rules when served
// over HTTP), which is how tests and the chaos-smoke script flap a
// replica mid-run.
//
// The /_fault/* control surface is handled by the proxy itself and is
// never fault-injected or forwarded: /_fault/rules (GET current
// rules, POST replacement), /_fault/stats (injection counters).
package faultproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Rules is one fault schedule. Probabilities are in [0,1] and drawn
// independently per request in a fixed order — blackhole, reset,
// error, truncate — so BlackholeProb=1 masks the rest; latency is
// orthogonal and applies before forwarding. The zero value forwards
// everything untouched.
type Rules struct {
	// Latency is added before forwarding when the LatencyProb draw
	// fires.
	Latency     time.Duration `json:"latency"`
	LatencyProb float64       `json:"latencyProb"`
	// ErrorProb answers ErrorStatus (default 503) with a JSON error
	// body instead of forwarding.
	ErrorProb   float64 `json:"errorProb"`
	ErrorStatus int     `json:"errorStatus"`
	// ResetProb hijacks the connection and closes it with SO_LINGER=0
	// — the client sees a TCP reset (or an abrupt EOF).
	ResetProb float64 `json:"resetProb"`
	// TruncateProb forwards the request but writes only half of the
	// response body under a full-length Content-Length, then closes —
	// the client sees an unexpected EOF mid-body.
	TruncateProb float64 `json:"truncateProb"`
	// BlackholeProb accepts the request and never answers: the
	// client hangs until its own deadline fires.
	BlackholeProb float64 `json:"blackholeProb"`
	// CorruptProb forwards the request and damages the response body
	// in a way HTTP cannot notice — one flipped bit, or the second
	// half dropped under a Content-Length that matches what is left
	// (the per-request draw picks which) — so the damage reaches the
	// client's decoder instead of its transport.
	CorruptProb float64 `json:"corruptProb"`
	// Path, when set, confines every fault above to requests for
	// exactly this URL path; all others are forwarded clean.
	Path string `json:"path"`
}

// Stats counts what the proxy did, for assertions and /_fault/stats.
type Stats struct {
	Forwarded  uint64 `json:"forwarded"`
	Latencies  uint64 `json:"latencies"`
	Errors     uint64 `json:"errors"`
	Resets     uint64 `json:"resets"`
	Truncated  uint64 `json:"truncated"`
	Blackholes uint64 `json:"blackholes"`
	Corrupted  uint64 `json:"corrupted"`
}

// Proxy is the fault-injecting reverse proxy; it implements
// http.Handler.
type Proxy struct {
	target *url.URL
	rp     *httputil.ReverseProxy
	seed   uint64
	seq    atomic.Uint64
	rules  atomic.Pointer[Rules]

	forwarded  atomic.Uint64
	latencies  atomic.Uint64
	errors     atomic.Uint64
	resets     atomic.Uint64
	truncated  atomic.Uint64
	blackholes atomic.Uint64
	corrupted  atomic.Uint64
}

// New builds a proxy forwarding to target (a base URL such as
// "http://127.0.0.1:8191") with the given jitter seed and no faults
// armed.
func New(target string, seed uint64) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("faultproxy: bad target %q: %w", target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("faultproxy: target %q needs a scheme and host", target)
	}
	p := &Proxy{target: u, seed: seed}
	p.rp = httputil.NewSingleHostReverseProxy(u)
	p.rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		// An unreachable backend answers 502 like any real proxy; the
		// coordinator classifies it as transient and fails over.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":{"code":"bad_gateway","message":%q}}`, err.Error())
	}
	p.rules.Store(&Rules{})
	return p, nil
}

// SetRules atomically replaces the fault schedule.
func (p *Proxy) SetRules(r Rules) { p.rules.Store(&r) }

// Rules returns the current fault schedule.
func (p *Proxy) Rules() Rules { return *p.rules.Load() }

// Stats returns the injection counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Forwarded:  p.forwarded.Load(),
		Latencies:  p.latencies.Load(),
		Errors:     p.errors.Load(),
		Resets:     p.resets.Load(),
		Truncated:  p.truncated.Load(),
		Blackholes: p.blackholes.Load(),
		Corrupted:  p.corrupted.Load(),
	}
}

// Target returns the backend base URL.
func (p *Proxy) Target() string { return p.target.String() }

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/_fault/") {
		p.serveControl(w, r)
		return
	}
	rules := *p.rules.Load()
	if rules.Path != "" && rules.Path != r.URL.Path {
		p.forwarded.Add(1)
		p.rp.ServeHTTP(w, r)
		return
	}
	i := p.seq.Add(1)
	draw := newDraw(p.seed, i)
	switch {
	case draw.hit(rules.BlackholeProb):
		p.blackholes.Add(1)
		// Drain the request body before parking: the net/http server
		// only watches for client disconnects once the body has been
		// consumed, and a blackhole must still observe the caller
		// giving up — otherwise Server.Close wedges on the parked
		// handler.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	case draw.hit(rules.ResetProb):
		p.resets.Add(1)
		p.reset(w)
		return
	case draw.hit(rules.ErrorProb):
		p.errors.Add(1)
		status := rules.ErrorStatus
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":{"code":"injected","message":"faultproxy injected status %d"}}`, status)
		return
	case draw.hit(rules.TruncateProb):
		p.truncated.Add(1)
		p.truncate(w, r)
		return
	case draw.hit(rules.CorruptProb):
		p.corrupted.Add(1)
		p.corrupt(w, r, draw)
		return
	}
	if rules.Latency > 0 && draw.hit(rules.LatencyProb) {
		p.latencies.Add(1)
		select {
		case <-time.After(rules.Latency):
		case <-r.Context().Done():
			return
		}
	}
	p.forwarded.Add(1)
	p.rp.ServeHTTP(w, r)
}

// reset tears the client connection down as abruptly as the platform
// allows: SO_LINGER=0 turns the close into a TCP RST.
func (p *Proxy) reset(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		// Can't hijack (e.g. HTTP/2): an empty 502 is the closest
		// observable failure.
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	conn.Close()
}

// fetch forwards the request upstream and reads the whole response,
// answering 502 itself when the backend cannot be reached.
func (p *Proxy) fetch(w http.ResponseWriter, r *http.Request) (*http.Response, []byte, bool) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.target.ResolveReference(&url.URL{Path: r.URL.Path, RawQuery: r.URL.RawQuery}).String(), r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return nil, nil, false
	}
	out.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(out)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return nil, nil, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return nil, nil, false
	}
	return resp, body, true
}

// truncate forwards the request upstream, then replays the response
// with a truthful Content-Length but only half the body before
// closing — the client reads an unexpected EOF mid-body, the
// truncated-response failure mode a crashing backend produces.
func (p *Proxy) truncate(w http.ResponseWriter, r *http.Request) {
	resp, body, ok := p.fetch(w, r)
	if !ok {
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		// No hijack support: truncation degrades to a reset-like
		// abort (header says more bytes than we can ever send).
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\n", resp.StatusCode, http.StatusText(resp.StatusCode))
	fmt.Fprintf(buf, "Content-Type: %s\r\n", resp.Header.Get("Content-Type"))
	fmt.Fprintf(buf, "Content-Length: %d\r\n", len(body))
	fmt.Fprintf(buf, "Connection: close\r\n\r\n")
	buf.Write(body[:len(body)/2])
	buf.Flush()
}

// corrupt forwards the request upstream and replays a well-formed
// response around a damaged body: status and content type intact, the
// body either one bit off or cut to its first half, Content-Length
// agreeing with what is sent. Only a checksum or a strict decoder on
// the client can tell.
func (p *Proxy) corrupt(w http.ResponseWriter, r *http.Request, d *draw) {
	resp, body, ok := p.fetch(w, r)
	if !ok {
		return
	}
	if d.hit(0.5) {
		body = body[:len(body)/2]
	} else if len(body) > 0 {
		bit := d.next() % uint64(8*len(body))
		body[bit/8] ^= 1 << (bit % 8)
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

func (p *Proxy) serveControl(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case r.URL.Path == "/_fault/rules" && r.Method == http.MethodGet:
		json.NewEncoder(w).Encode(p.Rules())
	case r.URL.Path == "/_fault/rules" && r.Method == http.MethodPost:
		var rules Rules
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&rules); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":%q}`, err.Error())
			return
		}
		p.SetRules(rules)
		json.NewEncoder(w).Encode(rules)
	case r.URL.Path == "/_fault/stats" && r.Method == http.MethodGet:
		json.NewEncoder(w).Encode(p.Stats())
	default:
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":"unknown control endpoint"}`)
	}
}

// draw is one request's deterministic coin-flip stream.
type draw struct{ state uint64 }

// newDraw derives request i's stream from the proxy seed: two
// splitmix64 finalizer rounds separate the per-request streams enough
// that consecutive requests are uncorrelated.
func newDraw(seed, i uint64) *draw {
	return &draw{state: mix(mix(seed) ^ mix(i*0x9E3779B97F4A7C15))}
}

// hit draws uniform [0,1) and compares. Each call advances the
// stream, so the probabilities are independent in the documented
// order.
func (d *draw) hit(prob float64) bool {
	if prob <= 0 {
		return false
	}
	return float64(d.next()>>11)/(1<<53) < prob
}

// next advances the stream by one 64-bit value.
func (d *draw) next() uint64 {
	d.state += 0x9E3779B97F4A7C15
	return mix(d.state)
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
