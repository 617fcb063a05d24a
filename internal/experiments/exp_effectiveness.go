package experiments

import (
	"context"
	"fmt"
	"time"

	"d3l/internal/core"
)

// RunExp1 reproduces Experiment 1 / Figure 3: precision and recall of
// each evidence type individually, against the combined D3L, as the
// answer size grows — on the SmallerReal-like lake.
func RunExp1(env *Env) (Report, error) {
	if env.Kind != "real" {
		return Report{}, fmt.Errorf("exp1 runs on the real env, got %q", env.Kind)
	}
	type series struct {
		label    string
		disabled [core.NumEvidence]bool
	}
	all := func(except core.Evidence) [core.NumEvidence]bool {
		var d [core.NumEvidence]bool
		for i := 0; i < int(core.NumEvidence); i++ {
			d[i] = core.Evidence(i) != except
		}
		// D-relatedness is guarded by N/F lookups, so a D-only query
		// would be inert; the paper's Fig. 3 likewise plots N, V, F, E.
		return d
	}
	runs := []series{
		{"name", all(core.EvidenceName)},
		{"value", all(core.EvidenceValue)},
		{"format", all(core.EvidenceFormat)},
		{"embedding", all(core.EvidenceEmbedding)},
		{"combined", [core.NumEvidence]bool{}},
	}
	rep := Report{
		ID:     "exp1/fig3",
		Title:  "Individual evidence precision and recall (SmallerReal)",
		Note:   "scale=" + env.Scale.Label,
		Header: []string{"evidence", "k", "precision", "recall"},
	}
	eng, err := env.D3L()
	if err != nil {
		return Report{}, err
	}
	for _, s := range runs {
		run := env.engineTopK(eng, core.QuerySpec{Disabled: &s.disabled})
		for _, k := range env.Scale.Ks {
			pt, err := env.prOverTargets(run, k)
			if err != nil {
				return Report{}, err
			}
			rep.Rows = append(rep.Rows, []string{s.label, itoa(k), f3(pt.Precision), f3(pt.Recall)})
		}
	}
	return rep, nil
}

// runComparativePR is the shared body of Experiments 2 and 3.
func runComparativePR(env *Env, id, title string) (Report, error) {
	rep := Report{
		ID:     id,
		Title:  title,
		Note:   "scale=" + env.Scale.Label,
		Header: []string{"system", "k", "precision", "recall"},
	}
	systems := []struct {
		label string
		mk    func() (topKFunc, error)
	}{
		{"D3L", func() (topKFunc, error) {
			eng, err := env.D3L()
			return env.engineTopK(eng, core.QuerySpec{}), err
		}},
		{"TUS", env.tusTopK},
		{"Aurum", env.aurumTopK},
	}
	for _, s := range systems {
		run, err := s.mk()
		if err != nil {
			return Report{}, err
		}
		for _, k := range env.Scale.Ks {
			pt, err := env.prOverTargets(run, k)
			if err != nil {
				return Report{}, err
			}
			rep.Rows = append(rep.Rows, []string{s.label, itoa(k), f3(pt.Precision), f3(pt.Recall)})
		}
	}
	return rep, nil
}

// RunExp2 reproduces Experiment 2 / Figure 4: comparative P/R on the
// Synthetic lake.
func RunExp2(env *Env) (Report, error) {
	if env.Kind != "synthetic" {
		return Report{}, fmt.Errorf("exp2 runs on the synthetic env, got %q", env.Kind)
	}
	return runComparativePR(env, "exp2/fig4", "Precision and recall on Synthetic (D3L vs TUS vs Aurum)")
}

// RunExp3 reproduces Experiment 3 / Figure 5: comparative P/R on the
// SmallerReal-like lake.
func RunExp3(env *Env) (Report, error) {
	if env.Kind != "real" {
		return Report{}, fmt.Errorf("exp3 runs on the real env, got %q", env.Kind)
	}
	return runComparativePR(env, "exp3/fig5", "Precision and recall on SmallerReal (D3L vs TUS vs Aurum)")
}

// TrainedWeightsReport fits the Eq. 3 weights on labelled pairs drawn
// from the env ground truth (the procedure of Section III-D) and
// reports the coefficients and classifier accuracy — the provenance of
// core.DefaultWeights.
func TrainedWeightsReport(env *Env) (Report, error) {
	eng, err := env.D3L()
	if err != nil {
		return Report{}, err
	}
	pairs, err := collectLabelledPairs(env, eng, 400)
	if err != nil {
		return Report{}, err
	}
	w, acc, err := core.TrainWeights(pairs, trainOpts())
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "weights",
		Title:  "Eq. 3 weights trained by coordinate-descent logistic regression",
		Note:   fmt.Sprintf("classifier accuracy %.2f over %d pairs", acc, len(pairs)),
		Header: []string{"evidence", "weight"},
	}
	for t := 0; t < int(core.NumEvidence); t++ {
		rep.Rows = append(rep.Rows, []string{core.Evidence(t).String(), f3(w[t])})
	}
	return rep, nil
}

// collectLabelledPairs builds Eq. 1 vectors for related and unrelated
// (target, candidate) pairs using the ground truth labels.
func collectLabelledPairs(env *Env, eng *core.Engine, maxPairs int) ([]core.LabelledPair, error) {
	var pairs []core.LabelledPair
	deadline := time.Now().Add(30 * time.Second)
	for _, tname := range env.Targets {
		if len(pairs) >= maxPairs || time.Now().After(deadline) {
			break
		}
		target, err := env.TargetTable(tname)
		if err != nil {
			return nil, err
		}
		res, err := eng.SearchSpec(context.Background(), target, core.QuerySpec{K: 40, CandidateBudget: env.Scale.CandidateBudget})
		if err != nil {
			return nil, err
		}
		for _, r := range res.Ranked {
			if r.Name == tname {
				continue
			}
			pairs = append(pairs, core.LabelledPair{
				Vector:  r.Vector,
				Related: env.GT.TablesRelated(tname, r.Name),
			})
			if len(pairs) >= maxPairs {
				break
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no labelled pairs collected")
	}
	return pairs, nil
}
