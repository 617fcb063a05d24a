package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 10 * time.Second
	// buildDir holds everything the benchmark leaves in the checkout:
	// the d3l binary and the per-run work directories. It is the
	// directory the driver points build output at, and .gitignore
	// names it.
	buildDir = ".bench_build"
)

// harness owns the side effects of a run: the work directory and every
// child process. close undoes all of them; it is safe to call twice
// and from a signal handler goroutine.
type harness struct {
	root   string // repository checkout
	binary string // built cmd/d3l
	work   string // per-run scratch: lake, snapshots
	out    string // kept after the run: child stderr, report, trace

	mu        sync.Mutex
	procs     []*proc
	closed    bool
	closeOnce sync.Once
}

// findRoot locates the checkout: the benchmark runs either from the
// repository root or from its own directory (go run -C benchmark).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if isDir(filepath.Join(dir, "cmd", "d3l")) && isDir(filepath.Join(dir, "benchmark")) {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no d3l checkout at %s or its parent (need cmd/d3l and benchmark/)", wd)
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// newHarness builds cmd/d3l (outside every timed region) and creates
// the run's directories. out == "" keeps the outputs under the work
// directory, which close removes.
func newHarness(out string) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	h := &harness{root: root, binary: filepath.Join(base, "d3l")}
	// Always ask the toolchain: its cache makes an up-to-date build a
	// fraction of a second, and a stale binary would measure the wrong
	// program.
	build := exec.Command("go", "build", "-o", h.binary, "./cmd/d3l")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/d3l: %v\n%s", err, msg)
	}
	if h.work, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, err
	}
	h.out = out
	if h.out == "" {
		h.out = filepath.Join(h.work, "out")
	} else if h.out, err = filepath.Abs(out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops every child, waits for it, and removes the work
// directory. Every caller returns only once all of that is done: the
// signal goroutine and the deferred call may race, and the process must
// not exit while the other is still half way through the removal.
func (h *harness) close() {
	h.closeOnce.Do(func() {
		h.mu.Lock()
		procs := h.procs
		h.procs = nil
		h.closed = true
		h.mu.Unlock()
		for _, p := range procs {
			p.stop()
		}
		os.RemoveAll(h.work)
	})
}

// proc is one child d3l process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	debug   string // http://127.0.0.1:port of the -pprof listener, if it has one
	stderr  string // path of the captured stderr
	logFile *os.File
	done    chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; the window is harmless on a box the
// benchmark has to itself, and a lost race fails the ready check loudly.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches `d3l args... -addr 127.0.0.1:<free port>` and returns
// without waiting for readiness.
func (h *harness) start(name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &proc{name: name, base: "http://" + addr, done: make(chan struct{})}
	p.stderr = filepath.Join(h.out, name+".stderr")
	if p.logFile, err = os.OpenFile(p.stderr, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	p.cmd = exec.Command(h.binary, append(args, "-addr", addr)...)
	p.cmd.Stdout = p.logFile
	p.cmd.Stderr = p.logFile
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		p.logFile.Close()
		return nil, fmt.Errorf("harness closed")
	}
	if err := p.cmd.Start(); err != nil {
		h.mu.Unlock()
		p.logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	go func() {
		p.waitErr = p.cmd.Wait()
		p.logFile.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the child to drain (SIGTERM), waits, and kills it if it
// does not exit in time. It returns once the process has ended.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(stopTimeout):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// stopProc stops one child and forgets it.
func (h *harness) stopProc(p *proc) {
	p.stop()
	h.mu.Lock()
	for i, q := range h.procs {
		if q == p {
			h.procs = append(h.procs[:i], h.procs[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// stderrTail returns the end of the child's captured stderr, for error
// messages.
func (p *proc) stderrTail() string {
	data, err := os.ReadFile(p.stderr)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// waitReady polls path until it answers 200, the child exits, or
// readyTimeout passes. A run that cannot reach ready fails here, with
// the child's stderr, instead of reporting partial metrics.
func (p *proc) waitReady(client *http.Client, path string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := client.Get(p.base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready: %v\n%s", p.name, p.waitErr, p.stderrTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready on %s%s after %v\n%s", p.name, p.base, path, readyTimeout, p.stderrTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status.
func (p *proc) procStatusKB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, p.cmd.Process.Pid)
}

// cpuSeconds reads the child's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return (utime + stime) / 100, nil
}

// runTool runs a d3l subcommand to completion and returns its wall
// time; its output goes to <out>/<name>.stderr and is quoted on
// failure.
func (h *harness) runTool(ctx context.Context, name string, args ...string) (time.Duration, error) {
	logPath := filepath.Join(h.out, name+".stderr")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer logFile.Close()
	cmd := exec.CommandContext(ctx, h.binary, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	start := time.Now()
	err = cmd.Run()
	elapsed := time.Since(start)
	if err != nil {
		msg, _ := os.ReadFile(logPath)
		return 0, fmt.Errorf("d3l %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	return elapsed, nil
}
