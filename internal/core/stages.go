package core

import "time"

// QueryStage identifies one wall-clock region of the ranking pipeline.
// The stages partition rankProfiled end to end (the serving layer adds
// its own stages — admission wait, cache lookup — in front of them):
//
//   - StagePlanPrepare: building or fetching the prepared evidence
//     cascade.
//   - StageGather: candidate generation — the four LSH forest probes,
//     cross-forest dedup and pair-distance computation. A shard's
//     gather phase (ShardGatherProfiled) runs the same gather and
//     reports this stage, and only this one.
//   - StageScore: scoring — Eq. 2 distribution construction, grouping
//     pairs by table and the per-table Eq. 1/Eq. 3 reduction, with the
//     incremental top-k heap maintenance that is interleaved with
//     scoring by design.
//   - StageRankMerge: winner alignment materialisation and answer
//     assembly.
type QueryStage uint8

const (
	StagePlanPrepare QueryStage = iota
	StageGather
	StageScore
	StageRankMerge
	// NumQueryStages bounds QueryStage for iteration.
	NumQueryStages
)

// String returns the stable snake_case stage name used as the metric
// label value; renaming one is a dashboard-breaking change pinned by
// the server's golden exposition test.
func (s QueryStage) String() string {
	switch s {
	case StagePlanPrepare:
		return "plan_prepare"
	case StageGather:
		return "gather"
	case StageScore:
		return "score"
	case StageRankMerge:
		return "rank_merge"
	default:
		return "unknown"
	}
}

// StageObserver receives the wall time of one pipeline stage of one
// query. Implementations must be safe for concurrent use (queries run
// concurrently) and cheap — they are called up to NumQueryStages times
// per query while the engine read lock is held.
type StageObserver func(stage QueryStage, d time.Duration)

// SetStageObserver installs (or, with nil, removes) the engine's stage
// observer. With no observer the pipeline takes no timestamps at all,
// so the instrumentation costs an unobserved query one atomic pointer
// load. Last registration wins; the serving layer re-registers on
// every engine swap.
func (e *Engine) SetStageObserver(o StageObserver) {
	if o == nil {
		e.stageObs.Store(nil)
		return
	}
	e.stageObs.Store(&o)
}

// stageTimer measures consecutive pipeline stages for one query. The
// zero-observer form is inert: lap returns immediately without reading
// the clock.
type stageTimer struct {
	obs  StageObserver
	last time.Time
}

func (e *Engine) newStageTimer() stageTimer {
	p := e.stageObs.Load()
	if p == nil {
		return stageTimer{}
	}
	return stageTimer{obs: *p, last: time.Now()}
}

// lap reports the time since the previous lap (or the timer's start)
// as stage s and restarts the clock.
func (t *stageTimer) lap(s QueryStage) {
	if t.obs == nil {
		return
	}
	now := time.Now()
	t.obs(s, now.Sub(t.last))
	t.last = now
}
