package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the comparison-sort kernels that the query's linear
// passes replaced as test-only oracles: refGroupPairsByTable for
// queryScratch.groupByTable, refDistinct for workerScratch.distinct.
// Each is checked against its replacement on seeded random inputs.

// refGroupPairsByTable is the retired grouping: sort the flattened
// pairs by (table, attribute, target column) and slice the result into
// contiguous per-table runs in ascending table id.
func refGroupPairsByTable(pairs []candidatePair, runs []tableRun) []tableRun {
	slices.SortFunc(pairs, func(a, b candidatePair) int {
		if a.tableID != b.tableID {
			return a.tableID - b.tableID
		}
		if a.attrID != b.attrID {
			return a.attrID - b.attrID
		}
		return a.targetCol - b.targetCol
	})
	runs = runs[:0]
	for i := 0; i < len(pairs); {
		j := i
		tid := pairs[i].tableID
		for j < len(pairs) && pairs[j].tableID == tid {
			j++
		}
		runs = append(runs, tableRun{tid: tid, start: int32(i), end: int32(j)})
		i = j
	}
	return runs
}

// refDistinct is the retired candidate set: stamp each id in a visited
// array on first sight, keep the first sightings, sort them.
func refDistinct(ids []int32, n int) []int32 {
	visited := make([]uint32, n)
	const epoch = 1
	var uniq []int32
	for _, id := range ids {
		if visited[id] != epoch {
			visited[id] = epoch
			uniq = append(uniq, id)
		}
	}
	slices.Sort(uniq)
	return uniq
}

// checkGrouping runs qs.groupByTable over cols (one pair buffer per
// target column) and compares it with both oracles: the runs and each
// run's multiset with refGroupPairsByTable, and the exact order with a
// stable sort of the concatenation by table id (column-major runs, each
// column in its gather order). It also checks that the grouping state
// is left zero for the next use.
func checkGrouping(t *testing.T, qs *queryScratch, cols [][]candidatePair, numTables int, label string) {
	t.Helper()
	for len(qs.colBufs) < len(cols) {
		qs.colBufs = append(qs.colBufs, nil)
	}
	var flat []candidatePair
	for c, colPairs := range cols {
		qs.colBufs[c] = append(qs.colBufs[c][:0], colPairs...)
		flat = append(flat, colPairs...)
	}
	got := qs.groupByTable(len(cols), numTables)

	want := slices.Clone(flat)
	slices.SortStableFunc(want, func(a, b candidatePair) int { return cmp.Compare(a.tableID, b.tableID) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: grouped pairs are not the stable partition by table id", label)
	}
	ref := slices.Clone(flat)
	refRuns := refGroupPairsByTable(ref, nil)
	if len(qs.runs) != len(refRuns) {
		t.Fatalf("%s: %d runs, reference %d", label, len(qs.runs), len(refRuns))
	}
	byKey := func(a, b candidatePair) int {
		return cmp.Or(cmp.Compare(a.attrID, b.attrID), cmp.Compare(a.targetCol, b.targetCol))
	}
	for i, r := range qs.runs {
		rr := refRuns[i]
		if r.tid != rr.tid || r.end-r.start != rr.end-rr.start {
			t.Fatalf("%s: run %d is (table %d, %d pairs), reference (table %d, %d pairs)",
				label, i, r.tid, r.end-r.start, rr.tid, rr.end-rr.start)
		}
		run := slices.Clone(got[r.start:r.end])
		slices.SortFunc(run, byKey)
		if !slices.Equal(run, ref[rr.start:rr.end]) {
			t.Fatalf("%s: run %d (table %d) holds another multiset of pairs", label, i, r.tid)
		}
	}
	if n := len(qs.runs); n > 0 && (qs.runs[0].start != 0 || int(qs.runs[n-1].end) != len(flat)) {
		t.Fatalf("%s: runs do not tile the %d pairs", label, len(flat))
	}
	for _, c := range qs.tablePairs[:cap(qs.tablePairs)] {
		if c != 0 {
			t.Fatalf("%s: a table count is left non-zero", label)
		}
	}
	for _, w := range qs.tableBits[:cap(qs.tableBits)] {
		if w != 0 {
			t.Fatalf("%s: a table bit is left set", label)
		}
	}
}

// randomColumns draws numCols pair buffers whose table ids lie below
// numTables and come from pick. Each buffer's attribute ids ascend, as
// a gather's do; distances are random so the multisets are distinct.
func randomColumns(rng *rand.Rand, numCols, maxPairs int, pick func() int) [][]candidatePair {
	cols := make([][]candidatePair, numCols)
	attr := 0
	for c := range cols {
		for n := rng.Intn(maxPairs + 1); n > 0; n-- {
			attr += 1 + rng.Intn(3)
			p := candidatePair{targetCol: c, attrID: attr, tableID: pick()}
			for t := range p.dist.Codes {
				p.dist.Codes[t] = uint16(rng.Intn(257))
			}
			p.dist.Domain = rng.Float64()
			cols[c] = append(cols[c], p)
		}
	}
	return cols
}

func TestGroupByTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	qs := &queryScratch{} // one arena throughout: every use must leave it clean
	for _, numTables := range []int{1, 2, 63, 64, 65, 127, 128, 129, 1000, 64, 3} {
		edges := []int{0, numTables - 1}
		for _, e := range []int{63, 64, 65} {
			if e < numTables {
				edges = append(edges, e)
			}
		}
		dense := func() int { return rng.Intn(numTables) }
		few := []int{rng.Intn(numTables), rng.Intn(numTables), numTables - 1}
		sparse := func() int { return few[rng.Intn(len(few))] }
		onEdges := func() int { return edges[rng.Intn(len(edges))] }
		for _, c := range []struct {
			name string
			pick func() int
		}{{"dense", dense}, {"sparse", sparse}, {"edges", onEdges}} {
			for trial := 0; trial < 20; trial++ {
				numCols := rng.Intn(7)
				if trial == 0 {
					numCols = 1
				}
				label := fmt.Sprintf("%d tables, %s, trial %d, %d columns", numTables, c.name, trial, numCols)
				checkGrouping(t, qs, randomColumns(rng, numCols, 40, c.pick), numTables, label)
			}
		}
	}
	checkGrouping(t, qs, nil, 10, "no columns")
	checkGrouping(t, qs, make([][]candidatePair, 3), 10, "three empty columns")
	checkGrouping(t, qs, [][]candidatePair{{{tableID: 0}}}, 1, "one pair")
}

func TestDistinctMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(541))
	ws := &workerScratch{} // one arena throughout: every use must leave it clean
	for _, n := range []int{1, 2, 63, 64, 65, 128, 129, 4300, 65, 7} {
		for trial := 0; trial < 30; trial++ {
			var ids []int32
			for k := rng.Intn(200); k > 0; k-- {
				ids = append(ids, int32(rng.Intn(n)))
			}
			for _, id := range []int{0, 63, 64, n - 1} {
				if id < n && rng.Intn(2) == 0 {
					ids = append(ids, int32(id), int32(id)) // and a duplicate
				}
			}
			if trial == 0 {
				ids = nil
			}
			want := refDistinct(ids, n)
			got := ws.distinct(slices.Clone(ids), n)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d trial %d: distinct %v, reference %v", n, trial, got, want)
			}
			for _, w := range ws.cands[:cap(ws.cands)] {
				if w != 0 {
					t.Fatalf("n=%d trial %d: a candidate bit is left set", n, trial)
				}
			}
		}
	}
}

// FuzzGroupByTable decodes data as pairs of three bytes — a target
// column, then a big-endian table id reduced below numTables — and
// checks the grouping against both oracles.
func FuzzGroupByTable(f *testing.F) {
	f.Add(uint16(64), []byte{0, 0, 63, 1, 0, 64, 0, 0, 63, 2, 0, 0})
	f.Add(uint16(1), []byte{})
	f.Add(uint16(129), []byte{3, 0, 128, 0, 0, 65, 3, 0, 128})
	qs := &queryScratch{}
	f.Fuzz(func(t *testing.T, tables uint16, data []byte) {
		numTables := 1 + int(tables)%4096
		cols := make([][]candidatePair, 4)
		for i := 0; i+2 < len(data); i += 3 {
			c := int(data[i]) % len(cols)
			p := candidatePair{targetCol: c, attrID: i, tableID: (int(data[i+1])<<8 | int(data[i+2])) % numTables}
			p.dist.Domain = float64(i)
			cols[c] = append(cols[c], p)
		}
		checkGrouping(t, qs, cols, numTables, "fuzz")
	})
}
