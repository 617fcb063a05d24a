package faultproxy

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// backend returns a plain upstream answering 200 with a recognizable
// body.
func backend(t *testing.T) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true,"padding":"0123456789012345678901234567890123456789"}`)
	}))
	t.Cleanup(s.Close)
	return s
}

func proxyFor(t *testing.T, target string, seed uint64) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(target, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := httptest.NewServer(p)
	t.Cleanup(s.Close)
	return p, s
}

// TestForwardsCleanByDefault: zero rules pass every request through.
func TestForwardsCleanByDefault(t *testing.T) {
	up := backend(t)
	p, front := proxyFor(t, up.URL, 7)
	for i := 0; i < 10; i++ {
		resp, err := http.Get(front.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok":true`) {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
	if st := p.Stats(); st.Forwarded != 10 || st.Errors+st.Resets+st.Truncated+st.Blackholes != 0 {
		t.Fatalf("stats diverge: %+v", st)
	}
}

// TestDeterministicSchedule: the same seed injects faults on the same
// request ordinals, run after run.
func TestDeterministicSchedule(t *testing.T) {
	up := backend(t)
	schedule := func(seed uint64) []bool {
		p, front := proxyFor(t, up.URL, seed)
		p.SetRules(Rules{ErrorProb: 0.5})
		var hits []bool
		for i := 0; i < 64; i++ {
			resp, err := http.Get(front.URL + "/x")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			hits = append(hits, resp.StatusCode != 200)
		}
		return hits
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at request %d: %v vs %v", i, a, b)
		}
	}
	injected := 0
	for _, h := range a {
		if h {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("p=0.5 injected %d/%d — draw stream looks degenerate", injected, len(a))
	}
	c := schedule(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

// TestInjectedError answers the configured status with a JSON body.
func TestInjectedError(t *testing.T) {
	up := backend(t)
	p, front := proxyFor(t, up.URL, 1)
	p.SetRules(Rules{ErrorProb: 1, ErrorStatus: 502})
	resp, err := http.Get(front.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 502 || !strings.Contains(string(body), "injected") {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

// TestReset: the client observes a transport-level failure, not an
// HTTP response.
func TestReset(t *testing.T) {
	up := backend(t)
	p, front := proxyFor(t, up.URL, 1)
	p.SetRules(Rules{ResetProb: 1})
	_, err := http.Get(front.URL + "/x")
	if err == nil {
		t.Fatal("reset produced a clean response")
	}
}

// TestTruncate: headers promise the full body, the wire carries half —
// the client sees an unexpected EOF mid-read.
func TestTruncate(t *testing.T) {
	up := backend(t)
	p, front := proxyFor(t, up.URL, 1)
	p.SetRules(Rules{TruncateProb: 1})
	resp, err := http.Get(front.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("truncated body read cleanly")
	}
}

// TestBlackhole: the request hangs until the client deadline fires.
func TestBlackhole(t *testing.T) {
	up := backend(t)
	p, front := proxyFor(t, up.URL, 1)
	p.SetRules(Rules{BlackholeProb: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/x", nil)
	start := time.Now()
	_, err := http.DefaultClient.Do(req)
	if err == nil {
		t.Fatal("blackholed request answered")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if time.Since(start) < 90*time.Millisecond {
		t.Fatalf("blackhole answered early (%v)", time.Since(start))
	}
}

// TestLatency delays but still answers correctly.
func TestLatency(t *testing.T) {
	up := backend(t)
	p, front := proxyFor(t, up.URL, 1)
	p.SetRules(Rules{Latency: 80 * time.Millisecond, LatencyProb: 1})
	start := time.Now()
	resp, err := http.Get(front.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if time.Since(start) < 70*time.Millisecond {
		t.Fatalf("latency rule did not delay (%v)", time.Since(start))
	}
}

// TestControlSurface: rules flip over HTTP mid-run and stats render;
// the control paths are never fault-injected.
func TestControlSurface(t *testing.T) {
	up := backend(t)
	_, front := proxyFor(t, up.URL, 1)
	post := func(rules string) {
		t.Helper()
		resp, err := http.Post(front.URL+"/_fault/rules", "application/json", strings.NewReader(rules))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("rules POST status %d", resp.StatusCode)
		}
	}
	post(`{"errorProb":1}`)
	if resp, err := http.Get(front.URL + "/x"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("armed rules not applied: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	// Control stays reachable while faults are armed at p=1.
	resp, err := http.Get(front.URL + "/_fault/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Errors == 0 {
		t.Fatalf("stats missed the injected error: %+v", st)
	}
	post(`{}`)
	if resp, err := http.Get(front.URL + "/x"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("disarmed rules still injecting: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestBadTarget rejects URLs a reverse proxy cannot use.
func TestBadTarget(t *testing.T) {
	for _, bad := range []string{"", "not a url", "127.0.0.1:8080"} {
		if _, err := New(bad, 1); err == nil {
			t.Fatalf("target %q accepted", bad)
		}
	}
}

// TestCorruptAndPath: a corrupted answer is a well-formed 200 whose
// body differs from the backend's — same length with one bit off, or
// the first half alone — and a Path rule confines the damage to that
// path.
func TestCorruptAndPath(t *testing.T) {
	up := backend(t)
	clean, err := http.Get(up.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(clean.Body)
	clean.Body.Close()

	p, front := proxyFor(t, up.URL, 3)
	p.SetRules(Rules{CorruptProb: 1, Path: "/hit"})
	flipped, halved := 0, 0
	for i := 0; i < 32; i++ {
		for _, path := range []string{"/hit", "/miss"} {
			resp, err := http.Get(front.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d type %q read error %v — corruption must stay invisible to HTTP", path, resp.StatusCode, resp.Header.Get("Content-Type"), err)
			}
			switch {
			case path == "/miss":
				if string(got) != string(want) {
					t.Fatalf("/miss was damaged: %q", got)
				}
			case len(got) == len(want)/2 && string(got) == string(want[:len(want)/2]):
				halved++
			case len(got) == len(want) && string(got) != string(want):
				flipped++
			default:
				t.Fatalf("/hit answered %q, neither bit-flipped nor halved", got)
			}
		}
	}
	if flipped == 0 || halved == 0 {
		t.Fatalf("32 corruptions: %d flipped, %d halved — want both kinds", flipped, halved)
	}
	if st := p.Stats(); st.Corrupted != 32 || st.Forwarded != 32 {
		t.Fatalf("stats diverge: %+v", st)
	}
}
