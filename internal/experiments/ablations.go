package experiments

import (
	"fmt"
	"time"

	"d3l/internal/core"
)

// RunAblationWeighting isolates the contribution of the Eq. 2 CCDF
// weighting scheme (one of the design choices DESIGN.md calls out):
// the env's engine queried with and without distribution-aware
// weights, compared on precision/recall over the env targets.
func RunAblationWeighting(env *Env) (Report, error) {
	rep := Report{
		ID:     "abl-weighting",
		Title:  "Ablation: Eq. 2 CCDF weights vs uniform Eq. 1 weights",
		Note:   "scale=" + env.Scale.Label + ", env=" + env.Kind,
		Header: []string{"weighting", "k", "precision", "recall"},
	}
	eng, err := env.D3L()
	if err != nil {
		return Report{}, err
	}
	for _, uniform := range []bool{false, true} {
		run := env.engineTopK(eng, core.QuerySpec{Uniform: uniform})
		label := "ccdf"
		if uniform {
			label = "uniform"
		}
		for _, k := range env.Scale.Ks {
			pt, err := env.prOverTargets(run, k)
			if err != nil {
				return Report{}, err
			}
			rep.Rows = append(rep.Rows, []string{label, itoa(k), f3(pt.Precision), f3(pt.Recall)})
		}
	}
	return rep, nil
}

// RunAblationSampling isolates the extent-sampling design choice: the
// indexing cost and retrieval quality at different MaxExtentSample
// caps (0 = profile the full extent, as TUS does).
func RunAblationSampling(env *Env) (Report, error) {
	rep := Report{
		ID:     "abl-sampling",
		Title:  "Ablation: extent sampling cap vs indexing time and quality",
		Note:   "scale=" + env.Scale.Label + ", env=" + env.Kind,
		Header: []string{"cap", "index time", "precision@k", "recall@k"},
	}
	k := env.Scale.Ks[len(env.Scale.Ks)/2]
	for _, cap := range []int{0, 64, 256, 512} {
		opts := core.DefaultOptions()
		opts.MaxExtentSample = cap
		start := time.Now()
		eng, err := core.BuildEngine(env.Lake, opts)
		if err != nil {
			return Report{}, err
		}
		dur := time.Since(start)
		pt, err := env.prOverTargets(env.engineTopK(eng, core.QuerySpec{}), k)
		if err != nil {
			return Report{}, err
		}
		label := itoa(cap)
		if cap == 0 {
			label = "full"
		}
		rep.Rows = append(rep.Rows, []string{label, dur.Round(time.Millisecond).String(), f3(pt.Precision), f3(pt.Recall)})
	}
	return rep, nil
}

// RunAblationEvidencePairs measures leave-one-out evidence importance:
// the combined query minus each single evidence type, quantifying what
// each contributes on top of the rest (complementing Exp 1's
// each-alone view).
func RunAblationEvidencePairs(env *Env) (Report, error) {
	rep := Report{
		ID:     "abl-leave-one-out",
		Title:  "Ablation: combined engine minus one evidence type",
		Note:   "scale=" + env.Scale.Label + ", env=" + env.Kind,
		Header: []string{"without", "k", "precision", "recall"},
	}
	k := env.Scale.Ks[len(env.Scale.Ks)/2]
	eng, err := env.D3L()
	if err != nil {
		return Report{}, err
	}
	for i, label := range []string{"nothing", "N", "V", "F", "E", "D"} {
		var disabled [core.NumEvidence]bool
		if i > 0 {
			disabled[core.Evidence(i-1)] = true
		}
		pt, err := env.prOverTargets(env.engineTopK(eng, core.QuerySpec{Disabled: &disabled}), k)
		if err != nil {
			return Report{}, err
		}
		rep.Rows = append(rep.Rows, []string{label, itoa(k), f3(pt.Precision), f3(pt.Recall)})
	}
	return rep, nil
}

// RunAblations executes all ablation studies.
func RunAblations(env *Env) ([]Report, error) {
	var out []Report
	for _, run := range []func(*Env) (Report, error){
		RunAblationWeighting, RunAblationSampling, RunAblationEvidencePairs,
	} {
		rep, err := run(env)
		if err != nil {
			return nil, fmt.Errorf("ablations: %w", err)
		}
		out = append(out, rep)
	}
	return out, nil
}
