package experiments

import (
	"context"
	"time"

	"d3l/internal/core"
	"d3l/internal/table"
)

// rankedAnswer is a system-agnostic top-k entry: the answer table name
// and the system's claimed alignments (target column -> columns).
type rankedAnswer struct {
	name    string
	tableID int
	aligns  map[int][]int
}

// topKFunc runs one system's query, excluding the target itself from
// the answer (targets are drawn from the lake, as in the paper).
type topKFunc func(target *table.Table, k int) ([]rankedAnswer, error)

// engineTopK adapts a D3L engine — the env's own, or one an ablation
// built with other build options. Every query runs shape (an evidence
// mask, a weighting) at k+1 answers with the scale's candidate budget.
func (e *Env) engineTopK(eng *core.Engine, shape core.QuerySpec) topKFunc {
	return func(target *table.Table, k int) ([]rankedAnswer, error) {
		spec := shape
		spec.K, spec.CandidateBudget = k+1, e.Scale.CandidateBudget
		res, err := eng.SearchSpec(context.Background(), target, spec)
		if err != nil {
			return nil, err
		}
		out := make([]rankedAnswer, 0, k)
		for _, r := range res.Ranked {
			if r.Name == target.Name {
				continue
			}
			aligns := make(map[int][]int, len(r.Alignments))
			for _, a := range r.Alignments {
				aligns[a.TargetColumn] = append(aligns[a.TargetColumn], a.CandColumn)
			}
			out = append(out, rankedAnswer{name: r.Name, tableID: r.TableID, aligns: aligns})
			if len(out) == k {
				break
			}
		}
		return out, nil
	}
}

// tusTopK adapts the TUS baseline.
func (e *Env) tusTopK() (topKFunc, error) {
	s, err := e.TUS()
	if err != nil {
		return nil, err
	}
	return func(target *table.Table, k int) ([]rankedAnswer, error) {
		res, err := s.TopK(target, k+1)
		if err != nil {
			return nil, err
		}
		out := make([]rankedAnswer, 0, k)
		for _, r := range res {
			if r.Name == target.Name {
				continue
			}
			out = append(out, rankedAnswer{name: r.Name, tableID: r.TableID, aligns: r.Alignments})
			if len(out) == k {
				break
			}
		}
		return out, nil
	}, nil
}

// aurumTopK adapts the Aurum baseline.
func (e *Env) aurumTopK() (topKFunc, error) {
	s, err := e.Aurum()
	if err != nil {
		return nil, err
	}
	return func(target *table.Table, k int) ([]rankedAnswer, error) {
		res, err := s.TopK(target, k+1)
		if err != nil {
			return nil, err
		}
		out := make([]rankedAnswer, 0, k)
		for _, r := range res {
			if r.Name == target.Name {
				continue
			}
			out = append(out, rankedAnswer{name: r.Name, tableID: r.TableID, aligns: r.Alignments})
			if len(out) == k {
				break
			}
		}
		return out, nil
	}, nil
}

// prOverTargets averages P/R over the env targets at one k.
func (e *Env) prOverTargets(run topKFunc, k int) (PRPoint, error) {
	results := make(map[string][]string, len(e.Targets))
	for _, tname := range e.Targets {
		target, err := e.TargetTable(tname)
		if err != nil {
			return PRPoint{}, err
		}
		answers, err := run(target, k)
		if err != nil {
			return PRPoint{}, err
		}
		names := make([]string, len(answers))
		for i, a := range answers {
			names[i] = a.name
		}
		results[tname] = names
	}
	p, r := meanPR(e.GT, results)
	return PRPoint{K: k, Precision: p, Recall: r}, nil
}

// timeSearch measures the mean per-target query latency at one k.
func (e *Env) timeSearch(run topKFunc, k int) (time.Duration, error) {
	var total time.Duration
	n := 0
	for _, tname := range e.Targets {
		target, err := e.TargetTable(tname)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := run(target, k); err != nil {
			return 0, err
		}
		total += time.Since(start)
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return total / time.Duration(n), nil
}
