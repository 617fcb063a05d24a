package d3l_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"d3l"
	"d3l/internal/core"
	"d3l/internal/datagen"
)

func figure1Engine(t testing.TB) *d3l.Engine {
	t.Helper()
	engine, err := d3l.New(figure1Lake(t), d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// asJSON marshals v the way the golden fixtures and the HTTP layer
// serialise answers, so two answers compare byte for byte.
func asJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQueryDefaults pins what Query answers when an option is left out:
// no options rank DefaultK tables, and an explanation-only query (k 0)
// runs no ranking, no join augmentation and no plan.
func TestQueryDefaults(t *testing.T) {
	engine := figure1Engine(t)
	target := figure1Target(t)
	ctx := context.Background()

	bare, err := engine.Query(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := engine.Query(ctx, target, d3l.WithK(d3l.DefaultK))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Stats.K != d3l.DefaultK || asJSON(t, bare.Results) != asJSON(t, explicit.Results) {
		t.Fatalf("Query with no options (k %d) diverged from WithK(DefaultK)", bare.Stats.K)
	}
	if bare.Joins != nil || bare.Explanation != nil {
		t.Fatal("Query with no options filled sections nobody asked for")
	}

	ansE, err := engine.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor("S2"))
	if err != nil {
		t.Fatal(err)
	}
	if ansE.Results != nil || ansE.Joins != nil || ansE.Plan.Enabled {
		t.Fatal("explanation-only query ran a ranking")
	}
	if len(ansE.Explanation) == 0 {
		t.Fatal("explanation-only query returned no rows")
	}
}

// TestQueryBatchMatchesSingleQueries: QueryBatch is exactly a
// concurrent fan-out of Query — the same answers, indexed like the
// targets — with the pool at one worker and at every core, and for
// every section a query can ask for.
func TestQueryBatchMatchesSingleQueries(t *testing.T) {
	cfg := datagen.SyntheticConfig{Seed: 19, BaseTables: 6, DerivedTables: 24, MinRows: 20, MaxRows: 40, RenameProb: 0.25}
	lake, _, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := d3l.New(lake, d3l.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*d3l.Table, 8)
	for i := range targets {
		targets[i] = lake.Table(i * 2)
	}
	ctx := context.Background()
	for _, opts := range [][]d3l.QueryOption{
		{d3l.WithK(7)},
		{d3l.WithK(3), d3l.WithJoins(), d3l.WithExplainFor(lake.Table(1).Name)},
	} {
		want := make([]string, len(targets))
		for i, target := range targets {
			ans, err := engine.Query(ctx, target, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = asJSON(t, []any{ans.Results, ans.Joins, ans.Explanation, ans.Stats.CandidatePairs, ans.Stats.TablesScored})
		}
		for _, workers := range []int{1, runtime.NumCPU()} {
			if err := engine.SetParallelism(workers); err != nil {
				t.Fatal(err)
			}
			answers, err := engine.QueryBatch(ctx, targets, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(answers) != len(targets) {
				t.Fatalf("%d workers: batch returned %d answers for %d targets", workers, len(answers), len(targets))
			}
			for i, a := range answers {
				if got := asJSON(t, []any{a.Results, a.Joins, a.Explanation, a.Stats.CandidatePairs, a.Stats.TablesScored}); got != want[i] {
					t.Fatalf("%d workers, target %d: batch answer differs from single query:\nsingle %s\nbatch  %s", workers, i, want[i], got)
				}
			}
		}
	}
}

// TestQueryBatchEdges: an empty batch answers nothing without error, an
// option set that asks for nothing is refused like Query refuses it, and
// cancellation wins over per-target failures — a cancelled batch with a
// bad target reports ctx.Err(), not the target's error.
func TestQueryBatchEdges(t *testing.T) {
	engine := figure1Engine(t)
	target := figure1Target(t)
	ctx := context.Background()
	if out, err := engine.QueryBatch(ctx, nil, d3l.WithK(5)); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %d answers, %v; want none, nil", len(out), err)
	}
	if _, err := engine.QueryBatch(ctx, []*d3l.Table{target}, d3l.WithK(0)); !errors.Is(err, d3l.ErrInvalidOptions) {
		t.Fatalf("k 0 batch err = %v, want ErrInvalidOptions", err)
	}
	if _, err := engine.QueryBatch(ctx, []*d3l.Table{target, nil}, d3l.WithK(2)); err == nil {
		t.Fatal("batch with a nil target succeeded")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	targets := make([]*d3l.Table, 20)
	for i := range targets {
		if i%3 != 0 {
			targets[i] = target
		}
	}
	out, err := engine.QueryBatch(cancelled, targets, d3l.WithK(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled batch returned answers")
	}
}

// TestQueryCombinedSections: one call returns ranking, joins and
// explanation together, each identical to its standalone form.
func TestQueryCombinedSections(t *testing.T) {
	engine := figure1Engine(t)
	target := figure1Target(t)
	ans, err := engine.Query(context.Background(), target,
		d3l.WithK(2), d3l.WithJoins(), d3l.WithExplainFor("S2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 || len(ans.Joins) == 0 || len(ans.Explanation) == 0 {
		t.Fatalf("missing sections: results=%d joins=%d explanation=%d",
			len(ans.Results), len(ans.Joins), len(ans.Explanation))
	}
	standalone, err := engine.Query(context.Background(), target, d3l.WithK(0), d3l.WithExplainFor("S2"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Explanation, standalone.Explanation) {
		t.Fatal("combined-query explanation diverged from the explanation-only query")
	}
	if ans.Stats.K != 2 || ans.Stats.CandidatePairs == 0 || ans.Stats.TablesScored == 0 {
		t.Fatalf("stats not populated: %+v", ans.Stats)
	}
	if ans.Stats.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", ans.Stats.Elapsed)
	}
}

func TestQueryCancelled(t *testing.T) {
	engine := figure1Engine(t)
	target := figure1Target(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.Query(ctx, target); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query err = %v, want context.Canceled", err)
	}
	if _, err := engine.Query(ctx, target, d3l.WithJoins()); !errors.Is(err, context.Canceled) {
		t.Fatalf("joins Query err = %v, want context.Canceled", err)
	}
	if _, err := engine.Query(ctx, target, d3l.WithK(0), d3l.WithExplainFor("S2")); !errors.Is(err, context.Canceled) {
		t.Fatalf("explain Query err = %v, want context.Canceled", err)
	}
	if _, err := engine.QueryBatch(ctx, []*d3l.Table{target}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryBatch err = %v, want context.Canceled", err)
	}
}

func TestQueryOptionValidation(t *testing.T) {
	engine := figure1Engine(t)
	target := figure1Target(t)
	ctx := context.Background()
	cases := []struct {
		name string
		opts []d3l.QueryOption
	}{
		{"negative k", []d3l.QueryOption{d3l.WithK(-1)}},
		{"k 0 without explain", []d3l.QueryOption{d3l.WithK(0)}},
		{"k 0 with joins", []d3l.QueryOption{d3l.WithK(0), d3l.WithExplainFor("S2"), d3l.WithJoins()}},
		{"empty evidence", []d3l.QueryOption{d3l.WithEvidence()}},
		{"bad evidence", []d3l.QueryOption{d3l.WithEvidence(d3l.Evidence(99))}},
		{"bad weights", []d3l.QueryOption{d3l.WithWeights(d3l.Weights{-1, 0, 0, 0, 0})}},
		{"negative budget", []d3l.QueryOption{d3l.WithCandidateBudget(-1)}},
		{"empty explain name", []d3l.QueryOption{d3l.WithExplainFor("")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.Query(ctx, target, tc.opts...)
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !errors.Is(err, d3l.ErrInvalidOptions) {
				t.Fatalf("err = %v, want ErrInvalidOptions so servers can answer 400", err)
			}
		})
	}
	if _, err := engine.Query(ctx, nil); err == nil {
		t.Fatal("nil target accepted")
	}
	// An unknown explanation target is a typed miss, failed before any
	// ranking work (even when a ranking was requested alongside).
	if _, err := engine.Query(ctx, target, d3l.WithK(3), d3l.WithExplainFor("no_such_table")); !errors.Is(err, d3l.ErrTableNotFound) {
		t.Fatalf("err = %v, want ErrTableNotFound", err)
	}
}

// TestQueryEvidenceSubset: a name+value-only query answers from the
// same index with the other evidence types neutralised — the new
// workload per-query evidence subsets open.
func TestQueryEvidenceSubset(t *testing.T) {
	engine := figure1Engine(t)
	ans, err := engine.Query(context.Background(), figure1Target(t),
		d3l.WithK(3), d3l.WithEvidence(d3l.EvidenceName, d3l.EvidenceValue))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("name+value query found nothing")
	}
	for _, r := range ans.Results {
		for _, ev := range []d3l.Evidence{d3l.EvidenceFormat, d3l.EvidenceEmbedding, d3l.EvidenceDomain} {
			if r.Vector[ev] != 1 {
				t.Fatalf("%s: excluded evidence %v contributed distance %v", r.Name, ev, r.Vector[ev])
			}
		}
	}
}

func TestParseEvidence(t *testing.T) {
	for name, want := range map[string]d3l.Evidence{
		"name": d3l.EvidenceName, "Value": d3l.EvidenceValue, "FORMAT": d3l.EvidenceFormat,
		"e": d3l.EvidenceEmbedding, " domain ": d3l.EvidenceDomain, "N": d3l.EvidenceName,
	} {
		got, err := d3l.ParseEvidence(name)
		if err != nil || got != want {
			t.Fatalf("ParseEvidence(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := d3l.ParseEvidence("nonsense"); err == nil {
		t.Fatal("bad evidence name accepted")
	}
}

// TestTablesAndTableNameUnderChurn: the lock-safe listing (and the
// formerly racy TableName) stay coherent while Add/Remove churn runs —
// meaningful under -race, where the pre-fix TableName reliably
// reported.
func TestTablesAndTableNameUnderChurn(t *testing.T) {
	engine := figure1Engine(t)
	names := engine.Tables()
	if len(names) != 3 || names[0] != "S1" || names[1] != "S2" || names[2] != "S3" {
		t.Fatalf("Tables() = %v, want [S1 S2 S3]", names)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			extra := mustTable(t, "churn", []string{"Practice", "City"},
				[][]string{{"Blackfriars", "Salford"}})
			if _, err := engine.Add(extra); err != nil {
				t.Error(err)
				return
			}
			if err := engine.Remove("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if name, err := engine.TableName(0); err != nil || name != "S1" {
			t.Fatalf("TableName(0) = %q, %v", name, err)
		}
		for _, n := range engine.Tables() {
			if n != "S1" && n != "S2" && n != "S3" && n != "churn" {
				t.Fatalf("unexpected table %q", n)
			}
		}
	}
	close(stop)
	wg.Wait()

	if err := engine.Remove("S3"); err != nil {
		t.Fatal(err)
	}
	names = engine.Tables()
	if len(names) != 2 || names[0] != "S1" || names[1] != "S2" {
		t.Fatalf("Tables() after Remove = %v, want [S1 S2]", names)
	}
}

// TestNilTargetRefusedEverywhere: every entry point that prepares a
// query target refuses a nil table with an error, and none panics.
func TestNilTargetRefusedEverywhere(t *testing.T) {
	ctx := context.Background()
	engine := figure1Engine(t)
	ce, err := core.BuildEngine(figure1Lake(t), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := core.QuerySpec{K: 3}
	depths := &core.ShardDepths{}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"core.Engine.Prepare", func() error { _, err := ce.Prepare(nil); return err }},
		{"core.Engine.SearchSpec", func() error { _, err := ce.SearchSpec(ctx, nil, spec); return err }},
		{"core.Engine.ShardProbeSpec", func() error { _, err := ce.ShardProbeSpec(ctx, nil, spec); return err }},
		{"core.Engine.ShardGatherSpec", func() error { _, err := ce.ShardGatherSpec(ctx, nil, spec, depths); return err }},
		{"d3l.Engine.Query", func() error { _, err := engine.Query(ctx, nil); return err }},
		{"d3l.Engine.Prepare", func() error { _, err := engine.Prepare(nil); return err }},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s(nil) panicked: %v", c.name, r)
				}
			}()
			if err := c.call(); err == nil {
				t.Errorf("%s(nil) returned no error", c.name)
			}
		}()
	}
}
