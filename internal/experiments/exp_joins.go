package experiments

import (
	"context"
	"fmt"

	"d3l/internal/core"
	"d3l/internal/joins"
	"d3l/internal/table"
)

// joinMeasures holds one system's coverage and attribute precision at
// one k, averaged over targets (Eq. 4/5 averages, Section V-E).
type joinMeasures struct {
	coverage      float64
	attrPrecision float64
}

// measureD3L computes coverage and attribute precision for D3L with or
// without join augmentation.
func (e *Env) measureD3L(withJoins bool, k int) (joinMeasures, error) {
	eng, err := e.D3L()
	if err != nil {
		return joinMeasures{}, err
	}
	var graph *joins.Graph
	if withJoins {
		graph = joins.BuildGraph(eng, joins.DefaultGraphOptions())
	}
	var covSum, precSum float64
	nCov, nPrec := 0, 0
	for _, tname := range e.Targets {
		target, err := e.TargetTable(tname)
		if err != nil {
			return joinMeasures{}, err
		}
		res, err := eng.SearchSpec(context.Background(), target, core.QuerySpec{K: k + 1})
		if err != nil {
			return joinMeasures{}, err
		}
		// Drop the target itself from the answer.
		ranked := res.Ranked[:0:0]
		for _, r := range res.Ranked {
			if r.Name != tname {
				ranked = append(ranked, r)
			}
		}
		if len(ranked) > k {
			ranked = ranked[:k]
		}
		var pathsByStart map[int][]joins.Path
		if withJoins {
			topK := make([]int, len(ranked))
			for i, r := range ranked {
				topK[i] = r.TableID
			}
			pathsByStart = joins.FindJoinPaths(graph, topK, res.TargetProfiles, joins.DefaultPathOptions())
		}
		for _, r := range ranked {
			// Coverage (Eq. 4 / Eq. 5).
			if withJoins {
				covSum += joins.JoinCoverage(eng, res.TargetProfiles, r.TableID, pathsByStart[r.TableID])
			} else {
				covSum += joins.Coverage(eng, res.TargetProfiles, r.TableID)
			}
			nCov++
			// Attribute precision over system alignments.
			perTable := map[string]map[int][]int{}
			base := map[int][]int{}
			for _, a := range r.Alignments {
				base[a.TargetColumn] = append(base[a.TargetColumn], a.CandColumn)
			}
			perTable[r.Name] = base
			if withJoins {
				for _, p := range pathsByStart[r.TableID] {
					for _, tid := range p {
						if tid == r.TableID {
							continue
						}
						name := e.Lake.Table(tid).Name
						perTable[name] = eng.RelatedColumnPairs(tid, res.TargetProfiles)
					}
				}
			}
			tp, fp := joinedAttrPrecision(e.GT, tname, perTable)
			if tp+fp > 0 {
				precSum += ratio(tp, tp+fp)
				nPrec++
			}
		}
	}
	out := joinMeasures{}
	if nCov > 0 {
		out.coverage = covSum / float64(nCov)
	}
	if nPrec > 0 {
		out.attrPrecision = precSum / float64(nPrec)
	}
	return out, nil
}

// measureTUS computes coverage and attribute precision for TUS (which
// has no join variant — the paper notes TUS does not address
// joinability).
func (e *Env) measureTUS(k int) (joinMeasures, error) {
	run, err := e.tusTopK()
	if err != nil {
		return joinMeasures{}, err
	}
	return e.measureRankedAnswers(run, k, nil)
}

// measureAurum computes coverage and attribute precision for Aurum,
// optionally augmented with PK/FK join neighbours (Aurum+J).
func (e *Env) measureAurum(withJoins bool, k int) (joinMeasures, error) {
	run, err := e.aurumTopK()
	if err != nil {
		return joinMeasures{}, err
	}
	var expand func(target *table.Table, tableID int) map[string]map[int][]int
	if withJoins {
		sys, err := e.Aurum()
		if err != nil {
			return joinMeasures{}, err
		}
		expand = func(target *table.Table, tableID int) map[string]map[int][]int {
			out := map[string]map[int][]int{}
			for _, nb := range sys.JoinNeighbours(tableID) {
				if m := sys.ColumnMatches(target, nb); len(m) > 0 {
					out[e.Lake.Table(nb).Name] = m
				}
			}
			return out
		}
	}
	return e.measureRankedAnswers(run, k, expand)
}

// measureRankedAnswers scores a generic system: coverage is the
// fraction of target columns its alignments (plus any join expansion)
// claim to populate; attribute precision checks those claims against
// the ground truth.
func (e *Env) measureRankedAnswers(run topKFunc, k int, expand func(*table.Table, int) map[string]map[int][]int) (joinMeasures, error) {
	var covSum, precSum float64
	nCov, nPrec := 0, 0
	for _, tname := range e.Targets {
		target, err := e.TargetTable(tname)
		if err != nil {
			return joinMeasures{}, err
		}
		answers, err := run(target, k)
		if err != nil {
			return joinMeasures{}, err
		}
		for _, a := range answers {
			perTable := map[string]map[int][]int{a.name: a.aligns}
			if expand != nil {
				for name, m := range expand(target, a.tableID) {
					if name != a.name {
						perTable[name] = m
					}
				}
			}
			covered := map[int]bool{}
			for _, aligns := range perTable {
				for col := range aligns {
					covered[col] = true
				}
			}
			if target.Arity() > 0 {
				covSum += float64(len(covered)) / float64(target.Arity())
				nCov++
			}
			tp, fp := joinedAttrPrecision(e.GT, tname, perTable)
			if tp+fp > 0 {
				precSum += ratio(tp, tp+fp)
				nPrec++
			}
		}
	}
	out := joinMeasures{}
	if nCov > 0 {
		out.coverage = covSum / float64(nCov)
	}
	if nPrec > 0 {
		out.attrPrecision = precSum / float64(nPrec)
	}
	return out, nil
}

// runJoinExperiment is the shared body of Experiments 8–11.
func runJoinExperiment(env *Env, id, title string, wantCoverage bool) (Report, error) {
	header := []string{"system", "k"}
	if wantCoverage {
		header = append(header, "coverage")
	} else {
		header = append(header, "attr precision")
	}
	rep := Report{
		ID:     id,
		Title:  title,
		Note:   "scale=" + env.Scale.Label,
		Header: header,
	}
	type sys struct {
		label   string
		measure func(k int) (joinMeasures, error)
	}
	systems := []sys{
		{"D3L", func(k int) (joinMeasures, error) { return env.measureD3L(false, k) }},
		{"D3L+J", func(k int) (joinMeasures, error) { return env.measureD3L(true, k) }},
		{"TUS", env.measureTUS},
		{"Aurum", func(k int) (joinMeasures, error) { return env.measureAurum(false, k) }},
		{"Aurum+J", func(k int) (joinMeasures, error) { return env.measureAurum(true, k) }},
	}
	for _, s := range systems {
		for _, k := range env.Scale.JoinKs {
			m, err := s.measure(k)
			if err != nil {
				return Report{}, err
			}
			v := m.coverage
			if !wantCoverage {
				v = m.attrPrecision
			}
			rep.Rows = append(rep.Rows, []string{s.label, itoa(k), f3(v)})
		}
	}
	return rep, nil
}

// RunExp8 reproduces Experiment 8 / Figure 7a: target coverage on
// Synthetic with and without join augmentation.
func RunExp8(env *Env) (Report, error) {
	if env.Kind != "synthetic" {
		return Report{}, fmt.Errorf("exp8 runs on the synthetic env, got %q", env.Kind)
	}
	return runJoinExperiment(env, "exp8/fig7a", "Target coverage on Synthetic (±J)", true)
}

// RunExp9 reproduces Experiment 9 / Figure 7b: attribute precision on
// Synthetic with and without join augmentation.
func RunExp9(env *Env) (Report, error) {
	if env.Kind != "synthetic" {
		return Report{}, fmt.Errorf("exp9 runs on the synthetic env, got %q", env.Kind)
	}
	return runJoinExperiment(env, "exp9/fig7b", "Attribute precision on Synthetic (±J)", false)
}

// RunExp10 reproduces Experiment 10 / Figure 8a: target coverage on
// SmallerReal with and without join augmentation.
func RunExp10(env *Env) (Report, error) {
	if env.Kind != "real" {
		return Report{}, fmt.Errorf("exp10 runs on the real env, got %q", env.Kind)
	}
	return runJoinExperiment(env, "exp10/fig8a", "Target coverage on SmallerReal (±J)", true)
}

// RunExp11 reproduces Experiment 11 / Figure 8b: attribute precision on
// SmallerReal with and without join augmentation.
func RunExp11(env *Env) (Report, error) {
	if env.Kind != "real" {
		return Report{}, fmt.Errorf("exp11 runs on the real env, got %q", env.Kind)
	}
	return runJoinExperiment(env, "exp11/fig8b", "Attribute precision on SmallerReal (±J)", false)
}
