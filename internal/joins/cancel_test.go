package joins

import (
	"context"
	"errors"
	"testing"

	"d3l/internal/core"
)

// Cancellation contract for the join layer: a cancelled build or
// augmentation returns ctx.Err() and never a partial graph or partial
// path set.

func TestBuildGraphCtxCancelled(t *testing.T) {
	e := buildEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := BuildGraphCtx(ctx, e, DefaultGraphOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g != nil {
		t.Fatal("cancelled build returned a partial graph")
	}
}

func TestAugmentCtxCancelled(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	augs, err := AugmentCtx(ctx, e, g, res, DefaultPathOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if augs != nil {
		t.Fatal("cancelled augment returned partial results")
	}
}

func TestFindJoinPathsCtxCancelled(t *testing.T) {
	e := buildEngine(t)
	g := BuildGraph(e, DefaultGraphOptions())
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	topK := []int{res.Ranked[0].TableID}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	paths, err := FindJoinPathsCtx(ctx, g, topK, res.TargetProfiles, DefaultPathOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paths != nil {
		t.Fatal("cancelled traversal returned paths")
	}
}

// TestCtxVariantsMatchLegacy: with a background context the ctx-first
// functions are the legacy functions.
func TestCtxVariantsMatchLegacy(t *testing.T) {
	e := buildEngine(t)
	ctx := context.Background()
	gLegacy := BuildGraph(e, DefaultGraphOptions())
	gCtx, err := BuildGraphCtx(ctx, e, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gLegacy.Edges() != gCtx.Edges() {
		t.Fatalf("edge counts diverge: legacy %d, ctx %d", gLegacy.Edges(), gCtx.Edges())
	}
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Augment(e, gLegacy, res, DefaultPathOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := AugmentCtx(ctx, e, gCtx, res, DefaultPathOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("augmented lengths diverge: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Result.Name != got[i].Result.Name ||
			want[i].BaseCoverage != got[i].BaseCoverage ||
			want[i].JoinCoverage != got[i].JoinCoverage ||
			len(want[i].Paths) != len(got[i].Paths) {
			t.Fatalf("augmented entry %d diverges: %+v vs %+v", i, want[i], got[i])
		}
	}
}
