package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"d3l"
	"d3l/internal/server"
)

// runMainEnv makes the test binary run main instead of the tests, so
// the smoke test can start real d3l processes without a separate build.
const runMainEnv = "D3L_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer that a server's goroutines may write
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// mustRun runs one command line in process and fails the test on error.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("d3l %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestCommandLines runs each subcommand in process and checks the exit
// status main maps its error to: 0 for a run and for -h, 2 for a
// command line that names no valid run, 1 for a failure of the run.
// Rows marked cancelled start a server under a context that is already
// done, so it binds, announces the bound address and drains at once.
func TestCommandLines(t *testing.T) {
	dir := t.TempDir()
	lake := filepath.Join(dir, "lake")
	if err := d3l.SaveLakeDir(testLake(t), lake); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(lake, "table_0.csv")
	targets := filepath.Join(dir, "targets")
	if err := os.Mkdir(targets, 0o755); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(targets, "q.csv"), csv, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, shards := filepath.Join(dir, "lake.d3l"), filepath.Join(dir, "shards")
	mustRun(t, "index", "build", "-dir", lake, "-out", snap, "-workers", "2")
	mustRun(t, "index", "build", "-dir", lake, "-out", shards, "-shards", "2")

	for _, tc := range []struct {
		name      string
		args      []string
		cancelled bool
		want      int
		stderr    string // a substring of what the run reports on stderr
	}{
		{name: "no command", args: nil, want: 2, stderr: "usage:"},
		{name: "unknown command", args: []string{"stats", "-dir", lake}, want: 2, stderr: `unknown command "stats"`},
		{name: "help", args: []string{"help"}, want: 0, stderr: "d3l coordinator"},

		{name: "generate without -out", args: []string{"generate"}, want: 2, stderr: "-out is required"},
		{name: "generate -tables -3", args: []string{"generate", "-tables", "-3", "-out", filepath.Join(dir, "neg")}, want: 2, stderr: "-tables must be non-negative"},
		{name: "generate unknown kind", args: []string{"generate", "-kind", "huge", "-out", filepath.Join(dir, "huge")}, want: 2},
		{name: "generate -h", args: []string{"generate", "-h"}, want: 0, stderr: "-tables"},
		{name: "generate", args: []string{"generate", "-tables", "3", "-out", filepath.Join(dir, "gen")}, want: 0},

		{name: "index without subcommand", args: []string{"index"}, want: 2, stderr: "expected a subcommand"},
		{name: "index unknown subcommand", args: []string{"index", "stats"}, want: 2, stderr: `unknown subcommand "stats"`},
		{name: "index build without -out", args: []string{"index", "build", "-dir", lake}, want: 2},
		{name: "index build -shards 0", args: []string{"index", "build", "-dir", lake, "-out", filepath.Join(dir, "x"), "-shards", "0"}, want: 2},
		{name: "index build of a missing lake", args: []string{"index", "build", "-dir", filepath.Join(dir, "none"), "-out", filepath.Join(dir, "x")}, want: 1},
		{name: "index info without -index", args: []string{"index", "info"}, want: 2},
		{name: "index info -h", args: []string{"index", "info", "-h"}, want: 0},
		{name: "index info", args: []string{"index", "info", "-index", snap}, want: 0},

		{name: "query without -target", args: []string{"query", "-index", snap}, want: 2, stderr: "-target is required"},
		{name: "query with -dir and -index", args: []string{"query", "-dir", lake, "-index", snap, "-target", target}, want: 2, stderr: "exactly one of -dir and -index"},
		{name: "query without a source", args: []string{"query", "-target", target}, want: 2},
		{name: "query with an undefined flag", args: []string{"query", "-table", "x"}, want: 2},
		{name: "query -k -1", args: []string{"query", "-index", snap, "-target", target, "-k", "-1"}, want: 1, stderr: "d3l: invalid query options"},
		{name: "query unknown -evidence", args: []string{"query", "-index", snap, "-target", target, "-evidence", "smell"}, want: 1},
		{name: "query -explain of a missing table", args: []string{"query", "-index", snap, "-target", target, "-explain", "nosuch"}, want: 1, stderr: "4 tables: table_0, table_1, table_2, ..."},
		{name: "query -h", args: []string{"query", "-h"}, want: 0, stderr: "-explain-plan"},
		{name: "query", args: []string{"query", "-dir", lake, "-target", target, "-k", "2", "-joins", "-evidence", "name,value", "-explain-plan"}, want: 0},
		{name: "query -k 0 -explain", args: []string{"query", "-index", snap, "-target", target, "-k", "0", "-explain", "table_1"}, want: 0},

		{name: "batch without -targets", args: []string{"batch", "-index", snap}, want: 2},
		{name: "batch with -dir and -index", args: []string{"batch", "-dir", lake, "-index", snap, "-targets", targets}, want: 2},
		{name: "batch -h", args: []string{"batch", "-h"}, want: 0},
		{name: "batch", args: []string{"batch", "-index", snap, "-targets", targets, "-k", "2", "-workers", "2"}, want: 0},

		{name: "serve -shards 0", args: []string{"serve", "-index", snap, "-shards", "0"}, want: 2},
		{name: "serve -watch without -dir", args: []string{"serve", "-index", snap, "-watch"}, want: 2},
		{name: "serve with -dir and -index", args: []string{"serve", "-dir", lake, "-index", snap}, want: 2},
		{name: "serve -shards 2 with -dir and -index", args: []string{"serve", "-dir", lake, "-index", shards, "-shards", "2"}, want: 2},
		{name: "serve -shards 3 of a 2-shard manifest", args: []string{"serve", "-index", shards, "-shards", "3"}, want: 2},
		{name: "serve -pprof off loopback", args: []string{"serve", "-index", snap, "-addr", "127.0.0.1:0", "-pprof", "0.0.0.0:0"}, want: 2, stderr: "loopback"},
		{name: "serve -h", args: []string{"serve", "-h"}, want: 0, stderr: "-drain-timeout"},
		{name: "serve", args: []string{"serve", "-index", snap, "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0", "-workers", "2"}, cancelled: true, want: 0, stderr: "signalled, draining"},
		{name: "serve -shards 2", args: []string{"serve", "-index", shards, "-shards", "2", "-addr", "127.0.0.1:0"}, cancelled: true, want: 0},
		{name: "serve -shards 2 -dir", args: []string{"serve", "-dir", lake, "-shards", "2", "-addr", "127.0.0.1:0"}, cancelled: true, want: 0},
		{name: "serve -watch", args: []string{"serve", "-dir", lake, "-watch", "-addr", "127.0.0.1:0"}, cancelled: true, want: 0, stderr: "watching"},

		{name: "coordinator without -shard", args: []string{"coordinator"}, want: 2, stderr: "at least one -shard"},
		{name: "coordinator -h", args: []string{"coordinator", "-h"}, want: 0, stderr: "-hedge-after"},

		{name: "faultproxy without -target", args: []string{"faultproxy"}, want: 2},
		{name: "faultproxy -h", args: []string{"faultproxy", "-h"}, want: 0},
		{name: "faultproxy", args: []string{"faultproxy", "-target", "http://127.0.0.1:1", "-listen", "127.0.0.1:0"}, cancelled: true, want: 0, stderr: "signalled, closing"},

		{name: "loadgen without -url or -direct", args: []string{"loadgen", "-dir", lake}, want: 2},
		{name: "loadgen without -dir", args: []string{"loadgen", "-direct"}, want: 2},
		{name: "loadgen -index over -url", args: []string{"loadgen", "-url", "http://127.0.0.1:1", "-index", snap, "-dir", lake}, want: 2},
		{name: "loadgen unknown op", args: []string{"loadgen", "-direct", "-dir", lake, "-mix", "scan=1"}, want: 1},
		{name: "loadgen -h", args: []string{"loadgen", "-h"}, want: 0},
		{name: "loadgen -direct", args: []string{"loadgen", "-direct", "-index", snap, "-dir", lake, "-warmup", "0s", "-duration", "100ms",
			"-workers", "2", "-out", filepath.Join(dir, "slo.json")}, want: 0},

		{name: "exp unknown id", args: []string{"exp", "-id", "exp99"}, want: 2},
		{name: "exp unknown scale", args: []string{"exp", "-scale", "huge"}, want: 2},
		{name: "exp -h", args: []string{"exp", "-h"}, want: 0},
		{name: "exp tab1", args: []string{"exp", "-id", "tab1"}, want: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancelled {
				cancel()
			}
			defer cancel()
			var stderr syncBuffer
			got := exitCode(run(ctx, tc.args, io.Discard, &stderr), &stderr)
			if got != tc.want || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("exit %d, want %d with %q on stderr:\n%s", got, tc.want, tc.stderr, stderr.String())
			}
			if strings.Contains(stderr.String(), "d3l: d3l:") {
				t.Fatalf("doubled prefix:\n%s", stderr.String())
			}
			if tc.cancelled && strings.Contains(stderr.String(), "127.0.0.1:0") {
				t.Fatalf("announced the requested address, not the bound one:\n%s", stderr.String())
			}
		})
	}
}

// proc is one d3l process the smoke test started.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://host:port, from the line announcing the bound address
	stderr syncBuffer
	done   chan struct{}
}

var listeningRE = regexp.MustCompile(`listening on ([^\s,]+)`)

// start runs the test binary as `d3l args...` and waits for the line
// that announces its bound address.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(os.Args[0], args...), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		p.cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			fmt.Fprintln(&p.stderr, sc.Text())
			if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		t.Fatalf("d3l %s exited before listening:\n%s", strings.Join(args, " "), p.stderr.String())
	case <-time.After(time.Minute):
		t.Fatalf("d3l %s announced no address:\n%s", strings.Join(args, " "), p.stderr.String())
	}
	return p
}

// waitOK polls path until it answers 200.
func (p *proc) waitOK(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(p.base + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s%s never answered 200 (last error %v):\n%s", p.base, path, err, p.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM and checks for the drain line and exit status 0.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-p.done
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%v after SIGTERM:\n%s", err, p.stderr.String())
	}
	if !strings.Contains(p.stderr.String(), "signalled, draining") {
		t.Fatalf("no drain line:\n%s", p.stderr.String())
	}
}

// TestServeSmoke starts the process shapes the serving benchmark
// starts — a monolith `d3l serve`, and a `d3l coordinator` over two
// shard `d3l serve`s — on ports the kernel picks, asks both fronts one
// /v1/query, and checks that their results are byte-equal and that
// each process drains and exits 0 on SIGTERM.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts four processes")
	}
	dir := t.TempDir()
	lake, mono, shards := filepath.Join(dir, "lake"), filepath.Join(dir, "lake.d3l"), filepath.Join(dir, "shards")
	mustRun(t, "generate", "-kind", "synthetic", "-out", lake, "-tables", "20", "-seed", "7")
	mustRun(t, "index", "build", "-dir", lake, "-out", mono)
	mustRun(t, "index", "build", "-dir", lake, "-out", shards, "-shards", "2")

	serve := start(t, "serve", "-index", mono, "-addr", "127.0.0.1:0")
	shard0 := start(t, "serve", "-index", filepath.Join(shards, "shard-000.d3l"), "-addr", "127.0.0.1:0")
	shard1 := start(t, "serve", "-index", filepath.Join(shards, "shard-001.d3l"), "-addr", "127.0.0.1:0")
	for _, p := range []*proc{serve, shard0, shard1} {
		p.waitOK(t, "/v1/healthz")
		p.waitOK(t, "/v1/readyz")
	}
	coord := start(t, "coordinator", "-shard", shard0.base, "-shard", shard1.base, "-addr", "127.0.0.1:0")
	coord.waitOK(t, "/v1/healthz")
	coord.waitOK(t, "/v1/readyz")

	entries, err := os.ReadDir(lake)
	if err != nil {
		t.Fatal(err)
	}
	target, err := d3l.ReadCSVFile(filepath.Join(lake, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	tj := server.TableJSON{Name: "target", Columns: target.ColumnNames()}
	for r := 0; r < target.Rows(); r++ {
		row := make([]string, target.Arity())
		for c, col := range target.Columns {
			row[c] = col.Values[r]
		}
		tj.Rows = append(tj.Rows, row)
	}
	k := 5
	body, err := json.Marshal(server.QueryRequest{Table: tj, K: &k})
	if err != nil {
		t.Fatal(err)
	}
	results := func(p *proc) string {
		resp, err := http.Post(p.base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ans struct{ Results json.RawMessage }
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/v1/query: status %d, %v", p.base, resp.StatusCode, err)
		}
		if len(ans.Results) == 0 {
			t.Fatalf("POST %s/v1/query: no results", p.base)
		}
		return string(ans.Results)
	}
	if m, c := results(serve), results(coord); m != c {
		t.Fatalf("coordinator results differ from the monolith's:\nmonolith    %s\ncoordinator %s", m, c)
	}

	for _, p := range []*proc{coord, shard0, shard1, serve} {
		p.stop(t)
	}
}

// TestServeReloadReappliesWorkers: a monolith serving a snapshot
// reloads through a loader that re-reads the file and re-applies
// -workers, which the snapshot does not carry; a failed load hands the
// server a nil engine, and the old one keeps serving. A -dir monolith
// has no loader.
func TestServeReloadReappliesWorkers(t *testing.T) {
	dir := t.TempDir()
	lake, snap := filepath.Join(dir, "lake"), filepath.Join(dir, "lake.d3l")
	if err := d3l.SaveLakeDir(testLake(t), lake); err != nil {
		t.Fatal(err)
	}
	mustRun(t, "index", "build", "-dir", lake, "-out", snap)

	var cfg server.Config
	engine, err := buildServeEngine("", snap, 3, 1, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	reloaded, ok := srv.Engine().(*d3l.Engine)
	if !ok || srv.Engine() == engine {
		t.Fatalf("reload served %T %p, want a fresh *d3l.Engine", srv.Engine(), srv.Engine())
	}
	// A snapshot carries no parallelism, so the loader sets -workers on
	// every load, as at startup: an invalid setting fails the reload.
	if e, err := snapshotLoader(snap, -1)(); err == nil || e != nil {
		t.Fatalf("load at -workers -1 = (%v, %v), want a nil engine and an error", e, err)
	}

	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if e, err := cfg.LoadFunc(); err == nil || e != nil {
		t.Fatalf("load of a missing snapshot = (%v, %v), want a nil engine and an error", e, err)
	}
	if err := srv.Reload(); err == nil || srv.Engine() != server.Engine(reloaded) {
		t.Fatalf("failed reload: err %v, serving %p; want an error and %p still serving", err, srv.Engine(), reloaded)
	}

	var dirCfg server.Config
	if _, err := buildServeEngine(lake, "", 0, 1, &dirCfg); err != nil {
		t.Fatal(err)
	}
	if dirCfg.LoadFunc != nil {
		t.Fatal("a -dir monolith has a reload loader")
	}
}
