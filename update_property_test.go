package d3l_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"d3l"
)

// This file pins the defining property of the in-place update path:
// Update(t) answers queries exactly like Remove(name)+Add(t) — the
// delta re-profiling and attribute-id reuse are pure optimisations,
// invisible in every answer. Two engines start identical; one takes
// every mutation through Update, the other through Remove+Add; after
// each round their Query, Explain and join answers must match modulo
// the identifiers Remove+Add necessarily reassigns (table ids,
// attribute ids).

// randomColumn draws rows values from a themed pool so columns across
// tables overlap (queries then have non-trivial answers) while a
// per-draw salt keeps exact cross-column ties rare.
func randomColumn(rng *rand.Rand, rows int) []string {
	pools := [][]string{
		{"london", "salford", "bolton", "manchester", "belfast", "leeds", "york"},
		{"blackfriars", "radclife", "cullen", "lister", "harvey", "jenner"},
		{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"},
	}
	pool := pools[rng.Intn(len(pools))]
	numeric := rng.Intn(3) == 0
	vals := make([]string, rows)
	for i := range vals {
		if numeric {
			vals[i] = fmt.Sprintf("%d", 100+rng.Intn(9000))
		} else {
			vals[i] = fmt.Sprintf("%s_%d", pool[rng.Intn(len(pool))], rng.Intn(40))
		}
	}
	return vals
}

func randomTable(t testing.TB, rng *rand.Rand, name string) *d3l.Table {
	rows := 5 + rng.Intn(6)
	arity := 2 + rng.Intn(3)
	cols := make([]string, arity)
	data := make([][]string, rows)
	for r := range data {
		data[r] = make([]string, arity)
	}
	colVals := make([][]string, arity)
	for c := 0; c < arity; c++ {
		cols[c] = fmt.Sprintf("col%d", c)
		colVals[c] = randomColumn(rng, rows)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < arity; c++ {
			data[r][c] = colVals[c][r]
		}
	}
	return mustTable(t, name, cols, data)
}

// mutate derives the next version of cur: a no-op, a subset of columns
// rewritten, a column added, or a column dropped — the four shapes the
// update path special-cases.
func mutate(t testing.TB, rng *rand.Rand, cur *d3l.Table) *d3l.Table {
	names := make([]string, len(cur.Columns))
	vals := make([][]string, len(cur.Columns))
	for i, c := range cur.Columns {
		names[i] = c.Name
		vals[i] = append([]string(nil), c.Values...)
	}
	rows := cur.Rows()
	switch rng.Intn(4) {
	case 0: // no-op
	case 1: // rewrite a random non-empty subset of columns
		n := 1 + rng.Intn(len(vals))
		for _, c := range rng.Perm(len(vals))[:n] {
			vals[c] = randomColumn(rng, rows)
		}
	case 2: // add a column
		names = append(names, fmt.Sprintf("col%d_%d", len(names), rng.Intn(1000)))
		vals = append(vals, randomColumn(rng, rows))
	case 3: // drop a column (keep at least one)
		if len(vals) > 1 {
			c := rng.Intn(len(vals))
			names = append(names[:c], names[c+1:]...)
			vals = append(vals[:c], vals[c+1:]...)
		}
	}
	data := make([][]string, rows)
	for r := range data {
		data[r] = make([]string, len(vals))
		for c := range vals {
			data[r][c] = vals[c][r]
		}
	}
	return mustTable(t, cur.Name, names, data)
}

const floatTol = 1e-9

func floatsClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= floatTol
}

func vectorsClose(a, b d3l.DistanceVector) bool {
	for i := range a {
		if !floatsClose(a[i], b[i]) {
			return false
		}
	}
	return true
}

// normResult is a TableResult with every engine-assigned identifier
// stripped: Remove+Add reassigns table and attribute ids, so only the
// id-free content can be compared. CandColumn is also dropped — on an
// exact distance tie the alignment may pick either of two equally
// distant candidate columns, and which one wins depends on attribute
// id order.
type normResult struct {
	Name       string
	Distance   float64
	Vector     d3l.DistanceVector
	Alignments []normAlignment
}

type normAlignment struct {
	TargetColumn int
	Distances    d3l.DistanceVector
}

func normalize(results []d3l.Result) []normResult {
	out := make([]normResult, len(results))
	for i, r := range results {
		n := normResult{Name: r.Name, Distance: r.Distance, Vector: r.Vector}
		for _, a := range r.Alignments {
			n.Alignments = append(n.Alignments, normAlignment{TargetColumn: a.TargetColumn, Distances: a.Distances})
		}
		sort.Slice(n.Alignments, func(x, y int) bool {
			return n.Alignments[x].TargetColumn < n.Alignments[y].TargetColumn
		})
		out[i] = n
	}
	// Equal-distance neighbours may rank in either order (ties break on
	// engine-assigned ids); sort runs of equal distance by name.
	sort.SliceStable(out, func(x, y int) bool {
		if !floatsClose(out[x].Distance, out[y].Distance) {
			return out[x].Distance < out[y].Distance
		}
		return out[x].Name < out[y].Name
	})
	return out
}

func diffNormalized(a, b []normResult) string {
	if len(a) != len(b) {
		return fmt.Sprintf("result count %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name {
			return fmt.Sprintf("rank %d: %q vs %q", i, x.Name, y.Name)
		}
		if !floatsClose(x.Distance, y.Distance) || !vectorsClose(x.Vector, y.Vector) {
			return fmt.Sprintf("rank %d (%s): distance %v/%v vs %v/%v", i, x.Name, x.Distance, x.Vector, y.Distance, y.Vector)
		}
		if len(x.Alignments) != len(y.Alignments) {
			return fmt.Sprintf("rank %d (%s): %d vs %d alignments", i, x.Name, len(x.Alignments), len(y.Alignments))
		}
		for j := range x.Alignments {
			if x.Alignments[j].TargetColumn != y.Alignments[j].TargetColumn ||
				!vectorsClose(x.Alignments[j].Distances, y.Alignments[j].Distances) {
				return fmt.Sprintf("rank %d (%s) alignment %d: %+v vs %+v", i, x.Name, j, x.Alignments[j], y.Alignments[j])
			}
		}
	}
	return ""
}

// pathNames maps join paths (table-id sequences) to name sequences and
// sorts them, since ids and traversal order are engine-assigned.
func pathNames(t testing.TB, e *d3l.Engine, aug d3l.Augmented) []string {
	t.Helper()
	var out []string
	for _, p := range aug.Paths {
		names := make([]string, len(p))
		for i, id := range p {
			n, err := e.TableName(id)
			if err != nil {
				t.Fatal(err)
			}
			names[i] = n
		}
		out = append(out, fmt.Sprintf("%v", names))
	}
	sort.Strings(out)
	return out
}

func TestUpdateEquivalentToRemoveThenAdd(t *testing.T) {
	const tables = 6
	const rounds = 8
	for _, seed := range []int64{1, 7, 1307} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lakeA, lakeB := d3l.NewLake(), d3l.NewLake()
			current := make(map[string]*d3l.Table, tables)
			var names []string
			for i := 0; i < tables; i++ {
				name := fmt.Sprintf("t%d", i)
				tbl := randomTable(t, rng, name)
				current[name] = tbl
				names = append(names, name)
				for _, lake := range []*d3l.Lake{lakeA, lakeB} {
					// Each engine gets its own Table value: engines may
					// retain and mutate bookkeeping around them.
					cp := mustTable(t, name, colNames(tbl), rowData(tbl))
					if _, err := lake.Add(cp); err != nil {
						t.Fatal(err)
					}
				}
			}
			engA, err := d3l.New(lakeA, d3l.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			engB, err := d3l.New(lakeB, d3l.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent query load against the updating engine for the
			// whole run: -race then proves Update's locking against the
			// read path, and a torn splice would surface as a panic or a
			// nonsense answer.
			qctx, stopQueries := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			probe := randomTable(t, rand.New(rand.NewSource(seed+99)), "probe")
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for qctx.Err() == nil {
						if _, err := engA.Query(qctx, probe, d3l.WithK(3)); err != nil && qctx.Err() == nil {
							t.Errorf("concurrent query: %v", err)
							return
						}
					}
				}()
			}
			defer wg.Wait()
			defer stopQueries()

			target := randomTable(t, rand.New(rand.NewSource(seed+42)), "target")
			for round := 0; round < rounds; round++ {
				name := names[rng.Intn(len(names))]
				next := mutate(t, rng, current[name])
				current[name] = next

				nextA := mustTable(t, name, colNames(next), rowData(next))
				nextB := mustTable(t, name, colNames(next), rowData(next))
				if _, err := engA.Update(nextA); err != nil {
					t.Fatalf("round %d: Update(%s): %v", round, name, err)
				}
				if err := engB.Remove(name); err != nil {
					t.Fatalf("round %d: Remove(%s): %v", round, name, err)
				}
				if _, err := engB.Add(nextB); err != nil {
					t.Fatalf("round %d: Add(%s): %v", round, name, err)
				}

				// Full ranking (k = lake size): no top-k boundary, so a
				// tie at the cut cannot select different tables.
				ansA, err := engA.Query(context.Background(), target, d3l.WithK(tables))
				if err != nil {
					t.Fatal(err)
				}
				ansB, err := engB.Query(context.Background(), target, d3l.WithK(tables))
				if err != nil {
					t.Fatal(err)
				}
				if d := diffNormalized(normalize(ansA.Results), normalize(ansB.Results)); d != "" {
					t.Fatalf("round %d (%s): query answers diverge: %s", round, name, d)
				}

				// Explain against the mutated table: id-free rows, exact
				// deep equality expected.
				explA, err := engA.Query(context.Background(), target, d3l.WithK(0), d3l.WithExplainFor(name))
				if err != nil {
					t.Fatal(err)
				}
				explB, err := engB.Query(context.Background(), target, d3l.WithK(0), d3l.WithExplainFor(name))
				if err != nil {
					t.Fatal(err)
				}
				expA, expB := explA.Explanation, explB.Explanation
				if len(expA) != len(expB) {
					t.Fatalf("round %d: explanation rows %d vs %d", round, len(expA), len(expB))
				}
				for i := range expA {
					if expA[i].TargetColumn != expB[i].TargetColumn || expA[i].SourceColumn != expB[i].SourceColumn ||
						!vectorsClose(expA[i].Distances, expB[i].Distances) {
						t.Fatalf("round %d: explanation row %d diverges: %+v vs %+v", round, i, expA[i], expB[i])
					}
				}

				// Join answers: same ranked names, coverages and path
				// sets (paths compared by table name, ids differ).
				joinedA, err := engA.Query(context.Background(), target, d3l.WithK(tables), d3l.WithJoins())
				if err != nil {
					t.Fatal(err)
				}
				joinedB, err := engB.Query(context.Background(), target, d3l.WithK(tables), d3l.WithJoins())
				if err != nil {
					t.Fatal(err)
				}
				augA, augB := joinedA.Joins, joinedB.Joins
				if len(augA) != len(augB) {
					t.Fatalf("round %d: join answers %d vs %d", round, len(augA), len(augB))
				}
				sortAug := func(augs []d3l.Augmented) {
					sort.SliceStable(augs, func(x, y int) bool {
						if !floatsClose(augs[x].Result.Distance, augs[y].Result.Distance) {
							return augs[x].Result.Distance < augs[y].Result.Distance
						}
						return augs[x].Result.Name < augs[y].Result.Name
					})
				}
				sortAug(augA)
				sortAug(augB)
				for i := range augA {
					a, b := augA[i], augB[i]
					if a.Result.Name != b.Result.Name ||
						!floatsClose(a.BaseCoverage, b.BaseCoverage) || !floatsClose(a.JoinCoverage, b.JoinCoverage) {
						t.Fatalf("round %d: join answer %d diverges: %s %v/%v vs %s %v/%v",
							round, i, a.Result.Name, a.BaseCoverage, a.JoinCoverage, b.Result.Name, b.BaseCoverage, b.JoinCoverage)
					}
					pa, pb := pathNames(t, engA, a), pathNames(t, engB, b)
					if fmt.Sprintf("%v", pa) != fmt.Sprintf("%v", pb) {
						t.Fatalf("round %d: join paths for %s diverge:\n  %v\n  %v", round, a.Result.Name, pa, pb)
					}
				}
			}
		})
	}
}

func colNames(t *d3l.Table) []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

func rowData(t *d3l.Table) [][]string {
	rows := t.Rows()
	out := make([][]string, rows)
	for r := 0; r < rows; r++ {
		out[r] = make([]string, len(t.Columns))
		for c, col := range t.Columns {
			out[r][c] = col.Values[r]
		}
	}
	return out
}
