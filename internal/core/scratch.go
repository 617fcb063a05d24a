package core

import (
	"math/bits"
	"slices"

	"d3l/internal/lsh"
)

// This file implements the query memory architecture: pooled, reusable
// scratch state that lets a steady-state query run from candidate
// generation through ranking with (near-)zero heap allocations. Two
// arena kinds exist, matching the two lifetimes in the pipeline:
//
//   - queryScratch lives for one query (a monolith ranking or a shard
//     gather). It owns every buffer whose contents must survive across
//     pipeline phases: the per-column candidate-pair buffers, the
//     table-grouped pair list and its grouping state, the counted
//     distributions backing the Eq. 2 weights, the contiguous table
//     runs, the alignment rows of the table being scored, the
//     scored-table slots, and the top-k heap.
//
//   - workerScratch lives for one column gather (or one shard probe
//     phase). It owns the state a single worker mutates: the forest
//     probe buffers, the candidate bitset and the distance memo.
//     Several workers run concurrently inside one query, so this state
//     cannot live in the query arena.
//
// Both are recycled through sync.Pools hanging off the Engine (the
// zero Pool is ready to use, so snapshot decoding needs no extra
// wiring). The pools are bounded in practice by the maximum number of
// concurrent queries × workers — for the HTTP serving layer that is
// the admission-gate capacity, which is why server.New prewarms
// exactly that many arenas. Nothing in an arena outlives its Put:
// every value escaping into a SearchResult is freshly allocated at
// materialisation time.
//
// Arrays indexed by attribute or table id (the bitsets, the per-table
// counts) are zero between uses: whoever sets an entry clears it before
// the arena goes back, so no use pays a clear of its own. They grow by
// capacity, the way append does (grown), so a lake that gains a table
// at a time does not reallocate every pooled arena on each add.

// queryScratch is the per-query arena. Zero value is ready; buffers
// grow to their steady-state sizes over the first queries and are
// reused afterwards.
type queryScratch struct {
	// colBufs[i] collects target column i's candidate pairs; the
	// per-column split is what lets the gather phase fan out across
	// workers without synchronising on a shared pair list.
	colBufs [][]candidatePair
	// grouped is the pair list laid out in per-table runs (see
	// groupByTable); tablePairs (a count per table id), tableBits (the
	// tables seen) and tids (those tables, ascending) are its grouping
	// state.
	grouped    []candidatePair
	tablePairs []int32
	tableBits  bitset
	tids       []int32
	// eq2 holds the counted distance distributions backing the Eq. 2
	// weights.
	eq2 eq2Weights
	// runs are the contiguous per-table slices of grouped.
	runs []tableRun
	// rows holds the alignment rows of the table being scored.
	rows []ShardRow
	// scored holds one slot per table that survived scoring.
	scored []scoredTable
	// top is the bounded top-k selection heap (indexes into scored).
	top []int32
}

// workerScratch is the per-work-unit arena.
type workerScratch struct {
	// ids is the forest probe buffer the probes append into.
	ids []int32
	// evals is the target ESig hash-value buffer for the I_E probe.
	evals []uint32
	// depths is the scratch of the forests' one-walk probe — a query's
	// self-tuning lsh.Forest.Probe, a shard probe phase's DepthCounts —
	// shared by the four forests.
	depths lsh.DepthScratch
	// cands is the candidate set of the column being gathered, one bit
	// per attribute id (see distinct).
	cands bitset
	// memo is the distance memo of the column being gathered.
	memo distMemo
}

// distinct rewrites ids, a column's probe regions (unordered, and
// overlapping across forests), as its distinct ids in ascending order:
// one bit per attribute id, read back word by word. n bounds the ids.
func (ws *workerScratch) distinct(ids []int32, n int) []int32 {
	ws.cands = grown(ws.cands, n/64+1)
	for _, id := range ids {
		ws.cands.add(int(id))
	}
	return ws.cands.drain(ids[:0])
}

// getQueryScratch takes a per-query arena from the engine pool.
func (e *Engine) getQueryScratch() *queryScratch {
	if qs, ok := e.queryScratchPool.Get().(*queryScratch); ok {
		return qs
	}
	return &queryScratch{}
}

func (e *Engine) putQueryScratch(qs *queryScratch) {
	e.queryScratchPool.Put(qs)
}

// getWorkerScratch takes a per-work-unit arena from the engine pool.
func (e *Engine) getWorkerScratch() *workerScratch {
	if ws, ok := e.workerScratchPool.Get().(*workerScratch); ok {
		return ws
	}
	return &workerScratch{}
}

func (e *Engine) putWorkerScratch(ws *workerScratch) {
	e.workerScratchPool.Put(ws)
}

// PrewarmScratch populates the scratch pools with n query arenas and n
// worker arenas so a serving process reaches its steady state before
// the first burst of traffic instead of allocating arenas under it.
// Serving layers call it with their admission capacity — the bound on
// concurrent queries, and therefore on arenas in flight at once.
// Buffers still grow lazily to workload-sized capacities; prewarming
// only pre-creates the arena objects and their epoch state.
func (e *Engine) PrewarmScratch(n int) {
	for i := 0; i < n; i++ {
		e.queryScratchPool.Put(&queryScratch{})
		e.workerScratchPool.Put(&workerScratch{})
	}
}

// tableRun is one contiguous per-table slice of the grouped pair list.
type tableRun struct {
	tid        int
	start, end int32
}

// scoredTable is the slot of one table that survived scoring:
// everything the top-k selection and the winner materialisation need.
// src is the table's index in the ranked sequence (its pair run, or its
// place among the shipped shard tables), where the winners' alignment
// rows are fetched from — only k of them can ever be observed, so none
// are kept here.
type scoredTable struct {
	tid  int
	src  int32
	dist float64
	name string
	vec  DistanceVector
}

// better is the ranking order: primary Eq. 3 distance, ties broken by
// table name (unique within a lake), exactly the comparator a full sort
// would use — so bounded top-k selection (rankTables) is provably
// order-identical, which is what the golden fixtures pin.
func better(a, b *scoredTable) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.name < b.name
}

// worse reports the inverse order; the selection heap is a max-heap by
// worseness (worst survivor at the root, evicted first).
func worse(scored []scoredTable, h []int32, i, j int) bool {
	return better(&scored[h[j]], &scored[h[i]])
}

func siftUp(scored []scoredTable, h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(scored, h, i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(scored []scoredTable, h []int32, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && worse(scored, h, l, m) {
			m = l
		}
		if r < len(h) && worse(scored, h, r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// groupByTable lays the gathered pairs (qs.colBufs[:numCols]) out as
// contiguous per-table runs in ascending table id, into qs.grouped and
// qs.runs, without a comparison sort: one pass counts each table's
// pairs and marks the table, the marked tables are read back in
// ascending id to place the runs, and a second pass scatters every pair
// straight from its column buffer into its run. Within a run the pairs
// keep the gather's order, by target column and then by attribute id,
// the layout alignRun reads. numTables bounds the table ids. It returns
// the grouped pairs.
func (qs *queryScratch) groupByTable(numCols, numTables int) []candidatePair {
	counts := grown(qs.tablePairs, numTables)
	qs.tablePairs = counts
	qs.tableBits = grown(qs.tableBits, numTables/64+1)
	total := 0
	for _, colPairs := range qs.colBufs[:numCols] {
		total += len(colPairs)
		for i := range colPairs {
			tid := colPairs[i].tableID
			qs.tableBits.add(tid)
			counts[tid]++
		}
	}
	qs.tids = qs.tableBits.drain(qs.tids[:0])
	// Each count becomes its run's write cursor.
	runs := qs.runs[:0]
	var off int32
	for _, tid := range qs.tids {
		n := counts[tid]
		runs = append(runs, tableRun{tid: int(tid), start: off, end: off + n})
		counts[tid] = off
		off += n
	}
	grouped := slices.Grow(qs.grouped[:0], total)[:total]
	for _, colPairs := range qs.colBufs[:numCols] {
		for i := range colPairs {
			tid := colPairs[i].tableID
			grouped[counts[tid]] = colPairs[i]
			counts[tid]++
		}
	}
	for _, r := range runs {
		counts[r.tid] = 0
	}
	qs.grouped, qs.runs = grouped, runs
	return grouped
}

// bitset is a set of non-negative ints, one bit each, kept empty
// between uses.
type bitset []uint64

func (b bitset) add(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// drain appends the members to dst in ascending order and empties the
// set.
func (b bitset) drain(dst []int32) []int32 {
	for w, word := range b {
		if word == 0 {
			continue
		}
		b[w] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// grown returns s with length n, for a zero-between-uses array: every
// element of s's capacity must be zero. It grows through append, whose
// amortised doubling keeps a lake that gains a table at a time from
// reallocating the array on every add.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
