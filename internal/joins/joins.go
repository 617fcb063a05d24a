// Package joins implements Section IV of the paper: extending
// relatedness through join paths. It builds the SA-join graph G_S over
// the lake (nodes are datasets, edges connect SA-joinable datasets),
// discovers join paths from the top-k tables with Algorithm 3, and
// computes the coverage measures of Eq. 4 and 5 that Experiments 8–11
// report. The graph keeps only what Algorithm 3 reads of an edge, the
// neighbouring table's id, in memory and in a snapshot alike.
package joins

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"d3l/internal/core"
)

// candidateBudget caps the I_V lookups per subject attribute.
const candidateBudget = 256

// Graph is the SA-join graph G_S = (S, I), holding what Algorithm 3
// reads of an edge: the neighbouring table's id. It is a CSR array over
// table ids: table t's neighbours are to[off[t]:off[t+1]], so off has one
// entry per table plus one. Both directions of every undirected edge are
// stored, each list in the order the build sorted it (overlap,
// descending).
type Graph struct {
	engine *core.Engine
	off    []int32
	to     []int32
}

// graphBlock is how many tables' candidates BuildGraphCtx generates
// before it merges them: it bounds the candidates pending at any moment
// (candidateBudget per table) whatever the lake's size.
const graphBlock = 256

// candidate is one SA-join opportunity of a table's subject attribute
// that cleared the overlap bound: an edge, unless the table pair already
// has one.
type candidate struct {
	otherTID int
	overlap  float64
}

// pair is one accepted edge while the build collects them: its two
// tables (a merged first), the estimated overlap, and the previous
// accepted pair whose b is this pair's b (-1 at the first), so the pairs
// a table merged later was already given are a chain from lastB.
type pair struct {
	a, b, prevB int32
	overlap     float64
}

// neighbour is one entry of a table's run while the build sorts it.
type neighbour struct {
	to      int32
	overlap float64
}

// pairChunkBits sizes the chunks a build's pairs live in: an appended
// slice would copy itself at every growth, 1.25× at a time, and allocate
// several times what it ends up holding.
const pairChunkBits = 12

// pairList holds the accepted pairs in acceptance order, in fixed chunks
// of 1<<pairChunkBits, numbered from 0.
type pairList struct {
	chunks [][]pair
	n      int32
}

// add appends p and returns its number.
func (l *pairList) add(p pair) int32 {
	if int(l.n>>pairChunkBits) == len(l.chunks) {
		l.chunks = append(l.chunks, make([]pair, 1<<pairChunkBits))
	}
	l.chunks[l.n>>pairChunkBits][l.n&(1<<pairChunkBits-1)] = p
	l.n++
	return l.n - 1
}

// at returns pair number i.
func (l *pairList) at(i int32) *pair { return &l.chunks[i>>pairChunkBits][i&(1<<pairChunkBits-1)] }

// BuildGraphCtx constructs G_S: for every table's subject attribute, the
// value index proposes overlap candidates; an edge appears when the
// estimated overlap coefficient clears the bound and at least one
// endpoint is a subject attribute (the two SA-joinability conditions).
// Cancellation is cooperative: the build checks ctx between tables and
// returns ctx.Err() with no graph when cancelled — a partial graph is
// never handed out.
//
// Candidate generation — the I_V probe of each table's subject attribute
// and the overlap estimate of every candidate it returns — is independent
// per table and fans out over the engine's query workers, a block of
// tables at a time. What depends on order is the table-pair dedup: a pair
// keeps the first edge found for it, by table, then by the order I_V
// returned the candidates in, and each table's list grows in that order
// (the final sort by overlap is not stable, so where ties land depends on
// it, and Algorithm 3 walks the lists in order). So each block is merged
// sequentially, in table order, and the graph is the one a
// table-at-a-time build produces.
func BuildGraphCtx(ctx context.Context, e *core.Engine) (*Graph, error) {
	numTables := e.Lake().Len()
	var pairs pairList
	// lastB[t] is the last accepted pair whose b is t, -1 when none.
	lastB := make([]int32, numTables)
	for t := range lastB {
		lastB[t] = -1
	}
	// The table-pair dedup. A pair is accepted while its a merges, and
	// tables merge in order, so while table tid merges, its pair with
	// other exists exactly when tid accepted other earlier in this merge
	// or other accepted tid in its own, earlier one (the chain from
	// lastB[tid]); either marks stamp[other] = tid+1.
	stamp := make([]int32, numTables)
	pending := make([][]candidate, min(graphBlock, numTables))
	probes := make([][]int32, len(pending)) // each slot's I_V buffer, reused block after block
	for lo := 0; lo < numTables; lo += graphBlock {
		block := pending[:min(graphBlock, numTables-lo)]
		err := e.ForEachQuery(ctx, len(block), func(i int) error {
			block[i], probes[i] = subjectCandidates(e, lo+i, block[i][:0], probes[i][:0])
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, cands := range block {
			tid := lo + i
			mark := int32(tid + 1)
			for p := lastB[tid]; p >= 0; p = pairs.at(p).prevB {
				stamp[pairs.at(p).a] = mark
			}
			for _, c := range cands {
				if stamp[c.otherTID] == mark {
					continue
				}
				stamp[c.otherTID] = mark
				lastB[c.otherTID] = pairs.add(pair{a: int32(tid), b: int32(c.otherTID), prevB: lastB[c.otherTID], overlap: c.overlap})
			}
		}
	}
	// CSR over the pairs: each table's run lists its neighbours in the
	// order their pairs were accepted, the order the table-at-a-time
	// build appended them to its per-table lists in.
	g := &Graph{engine: e, off: make([]int32, numTables+1), to: make([]int32, 2*pairs.n)}
	for i := int32(0); i < pairs.n; i++ {
		p := pairs.at(i)
		g.off[p.a+1]++
		g.off[p.b+1]++
	}
	for t := 0; t < numTables; t++ {
		g.off[t+1] += g.off[t]
	}
	next := stamp // the build's dedup is done; reuse it as each run's fill cursor
	copy(next, g.off[:numTables])
	runs := make([]neighbour, len(g.to))
	for i := int32(0); i < pairs.n; i++ {
		p := pairs.at(i)
		runs[next[p.a]] = neighbour{to: p.b, overlap: p.overlap}
		next[p.a]++
		runs[next[p.b]] = neighbour{to: p.a, overlap: p.overlap}
		next[p.b]++
	}
	// Each run is sorted in place, on its own, so the runs fan out too.
	err := e.ForEachQuery(ctx, numTables, func(t int) error {
		run := runs[g.off[t]:g.off[t+1]]
		slices.SortFunc(run, func(a, b neighbour) int { return cmp.Compare(b.overlap, a.overlap) })
		for i, nb := range run {
			g.to[int(g.off[t])+i] = nb.to
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// subjectCandidates appends to dst, in the order the value index
// proposes them, the attributes of other live tables whose estimated
// overlap with table tid's subject attribute clears the bound. A table
// that is removed or has no subject attribute has none. The value index
// lists its proposals in ids, which it returns for the next call.
func subjectCandidates(e *core.Engine, tid int, dst []candidate, ids []int32) ([]candidate, []int32) {
	if !e.AliveTable(tid) {
		return dst, ids // tombstoned by Engine.Remove
	}
	subj, ok := e.SubjectAttr(tid)
	if !ok {
		return dst, ids
	}
	_, subjSize := e.AttrTSet(subj)
	ids = e.VCandidates(subj, candidateBudget, ids)
	for _, candID := range ids {
		otherTID, candSize := e.AttrTSet(int(candID))
		if otherTID == tid || !e.AliveTable(otherTID) {
			continue
		}
		ov := e.OverlapCoefficient(subj, int(candID))
		if ov < overlapFloor(e.Threshold(), subjSize, candSize) {
			continue
		}
		dst = append(dst, candidate{otherTID: otherTID, overlap: ov})
	}
	return dst, ids
}

// overlapFloor is the overlap-coefficient floor for an edge between
// attributes whose tsets hold sizeA and sizeB values. The paper derives
// ov ≥ τ(|A|+|B|)/((1+τ)·min(|A|,|B|)) from τ; with the default τ = 0.7
// and balanced sets this is ≈ 0.82, but join keys have skewed
// cardinalities, so the bound against min(|A|,|B|) is taken per pair.
func overlapFloor(tau float64, sizeA, sizeB int) float64 {
	na, nb := float64(sizeA), float64(sizeB)
	if na == 0 || nb == 0 {
		return 1
	}
	m := na
	if nb < na {
		m = nb
	}
	bound := tau * (na + nb) / ((1 + tau) * m)
	if bound > 1 {
		bound = 1
	}
	// The inclusion-exclusion bound assumes the pair was retrieved at
	// τ; relax slightly to absorb MinHash estimation error.
	return bound * 0.85
}

// Neighbours returns the ids of the tables a table shares an edge with,
// in the order Algorithm 3 visits them. The slice is the graph's own.
func (g *Graph) Neighbours(tid int) []int32 { return g.to[g.off[tid]:g.off[tid+1]] }

// Edges reports the number of undirected edges.
func (g *Graph) Edges() int { return len(g.to) / 2 }

// Path is a join path: table ids starting at a top-k table.
type Path []int

// PathOptions bound Algorithm 3's traversal.
type PathOptions struct {
	// MaxDepth caps the path length including the start (default 4).
	MaxDepth int
	// MaxPathsPerStart caps the paths collected per top-k table
	// (default 64): SA-join graphs over open data are dense.
	MaxPathsPerStart int
}

// DefaultPathOptions returns the default bounds.
func DefaultPathOptions() PathOptions {
	return PathOptions{MaxDepth: 4, MaxPathsPerStart: 64}
}

// FindJoinPathsCtx runs Algorithm 3 from each top-k table: depth-first
// traversal of G_S collecting paths whose nodes (apart from the start)
// are outside the top-k, acyclic, and related to the target by at least
// one index. The traversal checks ctx between DFS nodes (the
// target-relatedness guard behind each node is the expensive step) and
// returns ctx.Err() with no paths when cancelled.
func FindJoinPathsCtx(ctx context.Context, g *Graph, topK []int, targetProfiles []core.Profile, opts PathOptions) (map[int][]Path, error) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 4
	}
	if opts.MaxPathsPerStart <= 0 {
		opts.MaxPathsPerStart = 64
	}
	inTopK := make(map[int]bool, len(topK))
	for _, tid := range topK {
		inTopK[tid] = true
	}
	// Cache the per-table target-relatedness guard: it is the expensive
	// test and tables recur across starts.
	relCache := make(map[int]bool)
	relatedToTarget := func(tid int) bool {
		if v, ok := relCache[tid]; ok {
			return v
		}
		v := len(g.engine.RelatedColumnPairs(tid, targetProfiles)) > 0
		relCache[tid] = v
		return v
	}
	out := make(map[int][]Path, len(topK))
	for _, start := range topK {
		// Empty, not nil, when the start has none: an answer lists it as
		// [] on the wire.
		paths := []Path{}
		var dfs func(node int, path Path)
		dfs = func(node int, path Path) {
			if ctx.Err() != nil {
				return
			}
			if len(paths) >= opts.MaxPathsPerStart || len(path) >= opts.MaxDepth {
				return
			}
			for _, nb := range g.Neighbours(node) {
				ni := int(nb)
				if inTopK[ni] || contains(path, ni) || !relatedToTarget(ni) {
					continue
				}
				next := append(append(Path{}, path...), ni)
				paths = append(paths, next)
				if len(paths) >= opts.MaxPathsPerStart {
					return
				}
				dfs(ni, next)
			}
		}
		dfs(start, Path{start})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[start] = paths
	}
	return out, nil
}

func contains(p Path, tid int) bool {
	for _, t := range p {
		if t == tid {
			return true
		}
	}
	return false
}

// Coverage computes the Eq. 4 coverage of a single table on the target:
// the fraction of target columns related to some attribute of the
// table.
func Coverage(e *core.Engine, targetProfiles []core.Profile, tableID int) float64 {
	if len(targetProfiles) == 0 {
		return 0
	}
	covered := e.RelatedColumnPairs(tableID, targetProfiles)
	return float64(len(covered)) / float64(len(targetProfiles))
}

// JoinCoverage computes the Eq. 5 combined coverage of a top-k table
// and all its join paths: the union of covered target columns over the
// start table and every table on every path.
func JoinCoverage(e *core.Engine, targetProfiles []core.Profile, start int, paths []Path) float64 {
	if len(targetProfiles) == 0 {
		return 0
	}
	covered := e.RelatedColumnPairs(start, targetProfiles)
	for _, p := range paths {
		for _, tid := range p {
			for col := range e.RelatedColumnPairs(tid, targetProfiles) {
				covered[col] = nil // the keys are the covered columns
			}
		}
	}
	return float64(len(covered)) / float64(len(targetProfiles))
}

// Augmented pairs one top-k result with its discovered join paths and
// both coverage figures.
type Augmented struct {
	Result       core.TableResult `json:"result"`
	Paths        []Path           `json:"paths"`
	BaseCoverage float64          `json:"baseCoverage"` // Eq. 4
	JoinCoverage float64          `json:"joinCoverage"` // Eq. 5
}

// AugmentCtx runs the D3L+J pipeline on a search result over the
// SA-join graph g: find join paths per top-k table, and compute
// coverage with and without joins. ctx is honoured through the path
// traversal and between the per-result coverage computations, and a
// cancelled call returns ctx.Err() with no partial augmentation.
func AugmentCtx(ctx context.Context, e *core.Engine, g *Graph, res *core.SearchResult, popts PathOptions) ([]Augmented, error) {
	if res == nil {
		return nil, fmt.Errorf("joins: nil search result")
	}
	topK := make([]int, len(res.Ranked))
	for i, r := range res.Ranked {
		topK[i] = r.TableID
	}
	tprofiles := res.Target.Profiles()
	pathsByStart, err := FindJoinPathsCtx(ctx, g, topK, tprofiles, popts)
	if err != nil {
		return nil, err
	}
	out := make([]Augmented, len(res.Ranked))
	for i, r := range res.Ranked {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		paths := pathsByStart[r.TableID]
		out[i] = Augmented{
			Result:       r,
			Paths:        paths,
			BaseCoverage: Coverage(e, tprofiles, r.TableID),
			JoinCoverage: JoinCoverage(e, tprofiles, r.TableID, paths),
		}
	}
	return out, nil
}
