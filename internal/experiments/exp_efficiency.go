package experiments

import (
	"fmt"
	"time"

	"d3l/internal/baselines/aurum"
	"d3l/internal/baselines/tus"
	"d3l/internal/core"
	"d3l/internal/datagen"
	"d3l/internal/mlearn"
	"d3l/internal/table"
)

func trainOpts() mlearn.Options { return mlearn.Options{Iterations: 150} }

// RunExp4 reproduces Experiment 4 / Figure 6a: time to create the
// indexes as the data lake grows, for D3L, TUS and Aurum, over samples
// of the LargerReal-like lake.
func RunExp4(scale Scale) (Report, error) {
	if len(scale.LargerSteps) == 0 {
		return Report{}, fmt.Errorf("exp4 needs LargerSteps")
	}
	maxTables := 0
	for _, n := range scale.LargerSteps {
		if n > maxTables {
			maxTables = n
		}
	}
	cfg := datagen.DefaultLargerConfig()
	cfg.Seed = scale.Seed + 7
	cfg.Tables = maxTables
	full, _, err := datagen.Larger(cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "exp4/fig6a",
		Title:  "Indexing time vs data lake size (LargerReal samples)",
		Note:   "scale=" + scale.Label,
		Header: []string{"tables", "attributes", "D3L", "TUS", "Aurum"},
	}
	for _, n := range scale.LargerSteps {
		sub := table.NewLake()
		attrs := 0
		for i := 0; i < n && i < full.Len(); i++ {
			if _, err := sub.Add(full.Table(i)); err != nil {
				return Report{}, err
			}
			attrs += full.Table(i).Arity()
		}
		d3lOpts := core.DefaultOptions()
		start := time.Now()
		if _, err := core.BuildEngine(sub, d3lOpts); err != nil {
			return Report{}, err
		}
		d3lDur := time.Since(start)

		start = time.Now()
		if _, err := tus.Build(sub, tus.DefaultOptions()); err != nil {
			return Report{}, err
		}
		tusDur := time.Since(start)

		start = time.Now()
		if _, err := aurum.Build(sub, aurum.DefaultOptions()); err != nil {
			return Report{}, err
		}
		aurumDur := time.Since(start)

		rep.Rows = append(rep.Rows, []string{
			itoa(n), itoa(attrs),
			d3lDur.Round(time.Millisecond).String(),
			tusDur.Round(time.Millisecond).String(),
			aurumDur.Round(time.Millisecond).String(),
		})
	}
	return rep, nil
}

// runSearchTime is the shared body of Experiments 5 and 6: mean query
// latency per answer size for D3L and TUS, plus Aurum's k-independent
// average reported once, as in the paper.
func runSearchTime(env *Env, id, title string) (Report, error) {
	rep := Report{
		ID:     id,
		Title:  title,
		Note:   "scale=" + env.Scale.Label + "; Aurum's query model is k-independent (single average)",
		Header: []string{"system", "k", "mean search time"},
	}
	eng, err := env.D3L()
	if err != nil {
		return Report{}, err
	}
	d3lRun := env.engineTopK(eng, core.QuerySpec{})
	tusRun, err := env.tusTopK()
	if err != nil {
		return Report{}, err
	}
	for _, k := range env.Scale.SearchKs {
		d, err := env.timeSearch(d3lRun, k)
		if err != nil {
			return Report{}, err
		}
		rep.Rows = append(rep.Rows, []string{"D3L", itoa(k), d.Round(time.Microsecond).String()})
	}
	for _, k := range env.Scale.SearchKs {
		d, err := env.timeSearch(tusRun, k)
		if err != nil {
			return Report{}, err
		}
		rep.Rows = append(rep.Rows, []string{"TUS", itoa(k), d.Round(time.Microsecond).String()})
	}
	aurumRun, err := env.aurumTopK()
	if err != nil {
		return Report{}, err
	}
	maxK := env.Scale.SearchKs[len(env.Scale.SearchKs)-1]
	d, err := env.timeSearch(aurumRun, maxK)
	if err != nil {
		return Report{}, err
	}
	rep.Rows = append(rep.Rows, []string{"Aurum", "avg", d.Round(time.Microsecond).String()})
	return rep, nil
}

// RunExp5 reproduces Experiment 5 / Figure 6b: search time vs answer
// size on the Synthetic lake.
func RunExp5(env *Env) (Report, error) {
	if env.Kind != "synthetic" {
		return Report{}, fmt.Errorf("exp5 runs on the synthetic env, got %q", env.Kind)
	}
	return runSearchTime(env, "exp5/fig6b", "Search time vs answer size (Synthetic)")
}

// RunExp6 reproduces Experiment 6 / Figure 6c: search time vs answer
// size on the SmallerReal-like lake.
func RunExp6(env *Env) (Report, error) {
	if env.Kind != "real" {
		return Report{}, fmt.Errorf("exp6 runs on the real env, got %q", env.Kind)
	}
	return runSearchTime(env, "exp6/fig6c", "Search time vs answer size (SmallerReal)")
}

// RunExp7 reproduces Experiment 7 / Table II: index space overhead
// relative to repository size, per system, on both effectiveness lakes
// plus a LargerReal sample.
func RunExp7(synth, real *Env) (Report, error) {
	cfg := datagen.DefaultLargerConfig()
	cfg.Seed = synth.Scale.Seed + 9
	cfg.Tables = synth.Scale.LargerSteps[len(synth.Scale.LargerSteps)-1]
	larger, _, err := datagen.Larger(cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "exp7/tab2",
		Title:  "Space overhead of the indexes (% of repository size)",
		Note:   "scale=" + synth.Scale.Label,
		Header: []string{"system", "Synthetic", "SmallerReal", "LargerReal (sample)"},
	}
	type cell struct{ index, data int64 }
	overheads := map[string][3]cell{}
	envs := []struct {
		idx  int
		lake *table.Lake
	}{{0, synth.Lake}, {1, real.Lake}, {2, larger}}
	for _, le := range envs {
		d3lEng, err := core.BuildEngine(le.lake, core.DefaultOptions())
		if err != nil {
			return Report{}, err
		}
		tusSys, err := tus.Build(le.lake, tus.DefaultOptions())
		if err != nil {
			return Report{}, err
		}
		aurumSys, err := aurum.Build(le.lake, aurum.DefaultOptions())
		if err != nil {
			return Report{}, err
		}
		data := le.lake.DataBytes()
		for name, idx := range map[string]int64{
			"D3L":   d3lEng.IndexSpaceBytes(),
			"TUS":   tusSys.IndexSpaceBytes(),
			"Aurum": aurumSys.IndexSpaceBytes(),
		} {
			cells := overheads[name]
			cells[le.idx] = cell{index: idx, data: data}
			overheads[name] = cells
		}
	}
	for _, name := range []string{"D3L", "TUS", "Aurum"} {
		cells := overheads[name]
		row := []string{name}
		for _, c := range cells {
			pct := 0.0
			if c.data > 0 {
				pct = 100 * float64(c.index) / float64(c.data)
			}
			row = append(row, fmt.Sprintf("%.0f%%", pct))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
