package core

import (
	"sync"
	"testing"
	"time"

	"d3l/internal/table"
)

func stageTestEngine(t *testing.T) (*Engine, *table.Table) {
	t.Helper()
	lake := table.NewLake()
	for _, spec := range [][3]string{
		{"cities", "city", "population"},
		{"towns", "town", "people"},
		{"rivers", "river", "length"},
	} {
		tbl, err := table.New(spec[0], []string{spec[1], spec[2]}, [][]string{
			{"alpha", "100"}, {"beta", "200"}, {"gamma", "300"}, {"delta", "400"},
		})
		if err != nil {
			t.Fatal(err)
		}
		lake.Add(tbl)
	}
	e, err := BuildEngine(lake, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := table.New("probe", []string{"city", "population"}, [][]string{
		{"alpha", "100"}, {"epsilon", "500"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, target
}

// TestStageObserverCoversPipeline proves a ranking query reports every
// stage exactly once with non-negative durations, that a shard gather
// reports its gather stage (the part of the pipeline a shard runs; the
// probe and the coordinator's merge have no stage of their own), and
// that removing the observer stops observations.
func TestStageObserverCoversPipeline(t *testing.T) {
	e, target := stageTestEngine(t)
	var mu sync.Mutex
	seen := map[QueryStage]int{}
	e.SetStageObserver(func(s QueryStage, d time.Duration) {
		if d < 0 {
			t.Errorf("stage %v: negative duration %v", s, d)
		}
		mu.Lock()
		seen[s]++
		mu.Unlock()
	})
	if _, err := topK(e, target, 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range []QueryStage{StagePlanPrepare, StageGather, StageScore, StageRankMerge} {
		if seen[s] != 1 {
			t.Errorf("stage %v observed %d times, want 1 (seen: %v)", s, seen[s], seen)
		}
	}

	// Shard traffic: the probe laps nothing, the gather laps StageGather.
	seen = map[QueryStage]int{}
	spec := QuerySpec{K: 2}
	probe, err := e.ShardProbeSpec(t.Context(), target, spec)
	if err != nil {
		t.Fatal(err)
	}
	depths, err := MergeProbeDepths([]*ShardProbe{probe})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Errorf("probe phase reported stages: %v", seen)
	}
	if _, err := e.ShardGatherSpec(t.Context(), target, spec, depths); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[StageGather] != 1 {
		t.Errorf("shard gather observed %v, want gather once", seen)
	}

	e.SetStageObserver(nil)
	seen = map[QueryStage]int{}
	if _, err := topK(e, target, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ShardGatherSpec(t.Context(), target, spec, depths); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Errorf("observations after removal: %v", seen)
	}
}

// TestStageNamesStable pins the metric label values: renaming a stage
// breaks dashboards and must be a deliberate edit here and in the
// server's golden exposition fixture.
func TestStageNamesStable(t *testing.T) {
	want := map[QueryStage]string{
		StagePlanPrepare: "plan_prepare",
		StageGather:      "gather",
		StageScore:       "score",
		StageRankMerge:   "rank_merge",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("stage %d name = %q, want %q", s, s.String(), name)
		}
	}
	if NumQueryStages != 4 {
		t.Errorf("NumQueryStages = %d; adding a stage requires updating the server metrics and golden fixture", NumQueryStages)
	}
	if QueryStage(200).String() != "unknown" {
		t.Errorf("out-of-range stage name = %q", QueryStage(200).String())
	}
}
