package experiments

import (
	"fmt"
	"time"

	"d3l/internal/baselines/aurum"
	"d3l/internal/baselines/tus"
	"d3l/internal/core"
	"d3l/internal/datagen"
	"d3l/internal/table"
)

// Scale sizes an experiment run. SmallScale keeps the full pipeline
// under a few seconds for tests and quick benches; PaperScale
// approaches the paper's repository sizes (minutes of wall clock).
type Scale struct {
	Label string

	SyntheticBases  int
	SyntheticTables int

	RealInstances   int
	RealTablesPer   int
	RealMinEntities int
	RealMaxEntities int

	Targets int
	Ks      []int // answer sizes for effectiveness experiments
	JoinKs  []int // answer sizes for the join experiments

	LargerSteps     []int // lake sizes for the Experiment 4 sweep
	SearchKs        []int // answer sizes for the search-time sweeps
	Seed            uint64
	CandidateBudget int // caps per-attribute candidates in every system's queries
}

// SmallScale returns the fast configuration used by tests and the
// default benchmark run.
func SmallScale() Scale {
	return Scale{
		Label:           "small",
		SyntheticBases:  8,
		SyntheticTables: 120,
		RealInstances:   4,
		RealTablesPer:   20,
		RealMinEntities: 50,
		RealMaxEntities: 120,
		Targets:         12,
		Ks:              []int{5, 10, 20, 40},
		JoinKs:          []int{5, 10, 20},
		LargerSteps:     []int{60, 120, 240},
		SearchKs:        []int{5, 10, 20, 40},
		Seed:            42,
		CandidateBudget: 96,
	}
}

// PaperScale approaches the paper's sizes (Synthetic ~5000 tables over
// 32 bases, SmallerReal ~700 tables, 100 targets). Expect minutes.
func PaperScale() Scale {
	return Scale{
		Label:           "paper",
		SyntheticBases:  32,
		SyntheticTables: 5000,
		RealInstances:   7,
		RealTablesPer:   100,
		RealMinEntities: 120,
		RealMaxEntities: 400,
		Targets:         100,
		Ks:              []int{5, 20, 50, 110, 170, 260, 350},
		JoinKs:          []int{5, 20, 50, 110},
		LargerSteps:     []int{500, 1000, 2000, 4000},
		SearchKs:        []int{10, 30, 50, 70, 90, 110},
		Seed:            42,
		CandidateBudget: 256,
	}
}

// Env is a generated lake with its ground truth, query targets, and
// lazily built systems (D3L and the two baselines), with build times
// recorded for the efficiency experiments.
type Env struct {
	Kind    string
	Scale   Scale
	Lake    *table.Lake
	GT      *datagen.GroundTruth
	Targets []string

	d3lEngine *core.Engine
	tusSystem *tus.System
	aurumSys  *aurum.System

	// BuildTime maps system name to indexing wall time.
	BuildTime map[string]time.Duration
}

// NewSyntheticEnv generates the Synthetic lake at the given scale.
func NewSyntheticEnv(s Scale) (*Env, error) {
	cfg := datagen.DefaultSyntheticConfig()
	cfg.Seed = s.Seed
	cfg.BaseTables = s.SyntheticBases
	cfg.DerivedTables = s.SyntheticTables
	lake, gt, err := datagen.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv("synthetic", s, lake, gt), nil
}

// NewRealEnv generates the SmallerReal-like lake at the given scale.
func NewRealEnv(s Scale) (*Env, error) {
	cfg := datagen.DefaultRealConfig()
	cfg.Seed = s.Seed + 1
	cfg.ScenarioInstances = s.RealInstances
	cfg.TablesPerInstance = s.RealTablesPer
	cfg.MinEntities = s.RealMinEntities
	cfg.MaxEntities = s.RealMaxEntities
	lake, gt, err := datagen.Real(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv("real", s, lake, gt), nil
}

func newEnv(kind string, s Scale, lake *table.Lake, gt *datagen.GroundTruth) *Env {
	return &Env{
		Kind:      kind,
		Scale:     s,
		Lake:      lake,
		GT:        gt,
		Targets:   datagen.PickTargets(lake, gt, s.Targets, s.Seed^0xfeed),
		BuildTime: make(map[string]time.Duration),
	}
}

// D3L lazily builds (and times) the D3L engine.
func (e *Env) D3L() (*core.Engine, error) {
	if e.d3lEngine == nil {
		start := time.Now()
		eng, err := core.BuildEngine(e.Lake, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("building D3L: %w", err)
		}
		e.BuildTime["D3L"] = time.Since(start)
		e.d3lEngine = eng
	}
	return e.d3lEngine, nil
}

// TUS lazily builds (and times) the TUS baseline.
func (e *Env) TUS() (*tus.System, error) {
	if e.tusSystem == nil {
		opts := tus.DefaultOptions()
		opts.CandidateBudget = e.Scale.CandidateBudget
		start := time.Now()
		s, err := tus.Build(e.Lake, opts)
		if err != nil {
			return nil, fmt.Errorf("building TUS: %w", err)
		}
		e.BuildTime["TUS"] = time.Since(start)
		e.tusSystem = s
	}
	return e.tusSystem, nil
}

// Aurum lazily builds (and times) the Aurum baseline.
func (e *Env) Aurum() (*aurum.System, error) {
	if e.aurumSys == nil {
		opts := aurum.DefaultOptions()
		opts.CandidateBudget = e.Scale.CandidateBudget
		start := time.Now()
		s, err := aurum.Build(e.Lake, opts)
		if err != nil {
			return nil, fmt.Errorf("building Aurum: %w", err)
		}
		e.BuildTime["Aurum"] = time.Since(start)
		e.aurumSys = s
	}
	return e.aurumSys, nil
}

// TargetTable resolves a target name.
func (e *Env) TargetTable(name string) (*table.Table, error) {
	t := e.Lake.ByName(name)
	if t == nil {
		return nil, fmt.Errorf("target %q not in lake", name)
	}
	return t, nil
}
