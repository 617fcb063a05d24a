package joins

import (
	"context"
	"errors"
	"reflect"
	"slices"
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
	g, err := BuildGraphCtx(ctx, e)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g != nil {
		t.Fatal("cancelled build returned a partial graph")
	}
}

func TestAugmentCtxCancelled(t *testing.T) {
	e := buildEngine(t)
	g := buildGraph(t, e)
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
	g := buildGraph(t, e)
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	topK := []int{res.Ranked[0].TableID}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	paths, err := FindJoinPathsCtx(ctx, g, topK, res.Target.Profiles(), DefaultPathOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paths != nil {
		t.Fatal("cancelled traversal returned paths")
	}
}

// TestLiveCtxMatchesBackgroundCtx: a context that could cancel but
// does not takes the instrumented worker-pool path, and builds the same
// graph and augmentation as a background context, which cannot.
func TestLiveCtxMatchesBackgroundCtx(t *testing.T) {
	e := buildEngine(t)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	gBackground := buildGraph(t, e)
	gLive, err := BuildGraphCtx(live, e)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gBackground.off, gLive.off) || !slices.Equal(gBackground.to, gLive.to) {
		t.Fatalf("graphs diverge: background %d edges, live %d", gBackground.Edges(), gLive.Edges())
	}
	res, err := e.SearchSpec(context.Background(), joinTarget(t), core.QuerySpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AugmentCtx(context.Background(), e, gBackground, res, DefaultPathOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := AugmentCtx(live, e, gLive, res, DefaultPathOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("augmentations diverge:\nbackground %+v\nlive       %+v", want, got)
	}
}
