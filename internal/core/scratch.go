package core

import (
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
//     flattened pair list the grouping sort runs over, the sample arena
//     backing the Eq. 2 weight distributions, the contiguous table
//     runs, the scored-table slots, and the top-k heap.
//
//   - workerScratch lives for one unit of pool work (one column gather
//     or one query's table scoring). It owns the state a single worker
//     mutates: the forest probe buffer, the epoch-stamped visited array
//     that replaces the per-column `seen` map, the epoch-stamped
//     best-pair-per-target-column arrays of the alignment decision, and
//     the alignment rows of the table being scored. Several workers run
//     concurrently inside one query, so this state cannot live in the
//     query arena.
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
// Epoch stamping: a visited/marked test must be resettable per use
// without an O(n) clear. Each workerScratch keeps a monotonically
// increasing epoch; slot i is "set" iff stamp[i] equals the current
// epoch, so resetting is one integer increment. On the (once per 2^32
// uses per arena) wraparound the stamp array is cleared explicitly so
// stale stamps from 2^32 epochs ago cannot alias the fresh epoch.

// queryScratch is the per-query arena. Zero value is ready; buffers
// grow to their steady-state sizes over the first queries and are
// reused afterwards.
type queryScratch struct {
	// colBufs[i] collects target column i's candidate pairs; the
	// per-column split is what lets the gather phase fan out across
	// workers without synchronising on a shared pair list.
	colBufs [][]candidatePair
	// colErrs[i] is column i's gather error, if any.
	colErrs []error
	// flat is the flattened (then grouped-by-table) pair list.
	flat []candidatePair
	// samples is the sample arena: every (column, evidence) distance
	// distribution laid out contiguously in one buffer, sorted.
	samples []float64
	// cells holds the per-(column, evidence) regions of samples; ecdfs
	// wraps them for the weight lookups.
	cells [][]float64
	ecdfs distanceECDFs
	// runs are the contiguous per-table slices of the grouped flat
	// list — the replacement for the byTable map.
	runs []tableRun
	// scored holds one slot per table that survived scoring.
	scored []scoredTable
	// top is the bounded top-k selection heap (indexes into scored).
	top []int32
}

// ensureCols sizes colBufs and colErrs for a target arity, truncating
// each kept buffer and preserving grown capacities.
func (qs *queryScratch) ensureCols(n int) {
	for len(qs.colBufs) < n {
		qs.colBufs = append(qs.colBufs, nil)
		qs.colErrs = append(qs.colErrs, nil)
	}
	for i := 0; i < n; i++ {
		qs.colBufs[i] = qs.colBufs[i][:0]
		qs.colErrs[i] = nil
	}
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

	// visited/vEpoch: epoch-stamped membership over attribute ids,
	// replacing gatherColumn's seen map.
	visited []uint32
	vEpoch  uint32

	// best/bestMark/bEpoch: per-target-column best-pair selection of
	// alignRun. best[c] indexes into the table's pair run; bestMark is
	// epoch-stamped.
	best     []int32
	bestMark []uint32
	bEpoch   uint32
	// rows holds the alignment rows of the table being scored.
	rows []Alignment
	// memo is the distance memo of the column being gathered.
	memo distMemo
}

// visitedEpoch returns the visited array (sized for n attribute ids)
// and a fresh epoch: slot i is considered set iff visited[i] equals
// the returned epoch.
func (ws *workerScratch) visitedEpoch(n int) ([]uint32, uint32) {
	if len(ws.visited) < n {
		ws.visited = make([]uint32, n)
		ws.vEpoch = 0
	}
	ws.vEpoch++
	if ws.vEpoch == 0 { // wraparound: stale stamps could alias
		clear(ws.visited)
		ws.vEpoch = 1
	}
	return ws.visited, ws.vEpoch
}

// bestEpoch returns the best-pair selection arrays (sized for n target
// columns) and a fresh epoch.
func (ws *workerScratch) bestEpoch(n int) (best []int32, mark []uint32, epoch uint32) {
	if len(ws.bestMark) < n {
		ws.best = make([]int32, n)
		ws.bestMark = make([]uint32, n)
		ws.bEpoch = 0
	}
	ws.bEpoch++
	if ws.bEpoch == 0 {
		clear(ws.bestMark)
		ws.bEpoch = 1
	}
	return ws.best, ws.bestMark, ws.bEpoch
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

// groupPairsByTable sorts pairs by (table, attribute, target column)
// and slices the result into contiguous per-table runs — the
// allocation-free replacement for the byTable map + sort.Ints pass.
// The run order (ascending table id) matches the old sorted-key
// iteration, keeping scoring slot assignment deterministic.
func groupPairsByTable(pairs []candidatePair, runs []tableRun) []tableRun {
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
