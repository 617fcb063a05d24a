package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSelfcheck is the noise self-check: it runs `sets` interleaved sets
// of `runs` runs of every workload — each run a fresh process with its
// own seed, as the driver does — and judges every end-to-end metric the
// way the driver will, and a little harder: the spread of a set
// (interquartile range over median) and the distance of every later
// set's median from the first's, in either direction, must both stay
// within the metric's bound in BENCHMARK.json. It exits non-zero on any
// breach.
func runSelfcheck(ctx context.Context, sets, runs int, seed uint64, seconds int) error {
	if sets < 1 || runs < 2 {
		return fmt.Errorf("selfcheck needs at least 1 set of 2 runs")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := bf.checkDeclared(); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[workload][set][metric] = one value per run
	values := map[string][]map[string][]float64{}
	for _, w := range workloads {
		values[w.name] = make([]map[string][]float64, sets)
		for s := range values[w.name] {
			values[w.name][s] = map[string][]float64{}
		}
	}
	for r := 0; r < runs; r++ {
		for s := 0; s < sets; s++ {
			for _, w := range workloads {
				runSeed := seed + uint64(s*runs+r)
				line, noise, err := selfcheckRun(ctx, self, w.name, runSeed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, runSeed, err)
				}
				if !line.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, runSeed, line.Failed, line.Attempted)
				}
				fmt.Printf("run %d set %d %-10s seed %d  run.noise_ratio %s", r+1, s+1, w.name, runSeed, noise)
				for _, d := range endToEndMetrics {
					v := line.Metrics[d.name].Value
					values[w.name][s][d.name] = append(values[w.name][s][d.name], v)
					fmt.Printf("  %s %.4g", d.name, v)
				}
				fmt.Println()
			}
		}
	}

	breaches := 0
	for _, w := range workloads {
		fmt.Printf("\n%s\n%-16s %6s", w.name, "metric", "bound")
		for s := 0; s < sets; s++ {
			fmt.Printf("  set %d: %10s %10s %10s %7s", s+1, "q1", "median", "q3", "spread")
		}
		fmt.Printf("  %7s\n", "drift")
		for _, m := range bf.EndToEnd {
			fmt.Printf("%-16s %6.3f", m.Name, *m.Bound)
			var medians []float64
			bad := false
			for s := 0; s < sets; s++ {
				q1, q2, q3 := quartiles(values[w.name][s][m.Name])
				spread := 0.0
				if q2 != 0 {
					spread = (q3 - q1) / q2
				}
				fmt.Printf("         %10.4g %10.4g %10.4g %6.2f%%", q1, q2, q3, 100*spread)
				medians = append(medians, q2)
				// The driver does not gate the spread of setup_s.
				if m.Name != "setup_s" && spread > *m.Bound {
					bad = true
				}
			}
			// Drift: how far a later set's median is from the first's,
			// either way — the sets run the same code, so a set that reads
			// better is as much noise as one that reads worse.
			drift := 0.0
			for _, med := range medians[1:] {
				drift = max(drift, math.Abs(med-medians[0])/medians[0])
			}
			if drift > *m.Bound {
				bad = true
			}
			fmt.Printf("  %6.2f%%", 100*drift)
			if bad {
				breaches++
				fmt.Print("  BREACH")
			}
			fmt.Println()
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bound", breaches)
	}
	fmt.Println("\nselfcheck: every end-to-end metric within its bound")
	return nil
}

// selfcheckRun runs one workload in a fresh process and parses the
// result line; it also fishes run.noise_ratio out of the report.
func selfcheckRun(ctx context.Context, self, workload string, seed uint64, seconds int) (resultLine, string, error) {
	var line resultLine
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return line, "", fmt.Errorf("%v\n%s", err, stderr.String())
	}
	out := strings.TrimSpace(stdout.String())
	if i := strings.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		return line, "", fmt.Errorf("result line: %w", err)
	}
	noise := "?"
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "run.noise_ratio" {
			noise = f[1]
		}
	}
	return line, noise, nil
}
