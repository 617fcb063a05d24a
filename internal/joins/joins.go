// Package joins implements Section IV of the paper: extending
// relatedness through join paths. It builds the SA-join graph G_S over
// the lake (nodes are datasets, edges connect SA-joinable datasets),
// discovers join paths from the top-k tables with Algorithm 3, and
// computes the coverage measures of Eq. 4 and 5 that Experiments 8–11
// report.
package joins

import (
	"context"
	"fmt"
	"sort"

	"d3l/internal/core"
)

// GraphOptions configure SA-join graph construction.
type GraphOptions struct {
	// MinOverlap is the overlap-coefficient floor for an edge. The
	// paper derives ov ≥ τ(|A|+|B|)/((1+τ)·min(|A|,|B|)) from τ; with
	// the default τ = 0.7 and balanced sets this is ≈ 0.82, but join
	// keys have skewed cardinalities, so the bound against min(|A|,|B|)
	// is what matters. 0 selects the τ-derived bound per pair.
	MinOverlap float64
	// CandidateBudget caps I_V lookups per subject attribute.
	CandidateBudget int
}

// DefaultGraphOptions returns paper-faithful settings.
func DefaultGraphOptions() GraphOptions {
	return GraphOptions{MinOverlap: 0, CandidateBudget: 256}
}

// Edge is one SA-join opportunity between two tables.
type Edge struct {
	From, To         int // table ids
	FromAttr, ToAttr int // attribute ids
	Overlap          float64
}

// Graph is the SA-join graph G_S = (S, I).
type Graph struct {
	engine *core.Engine
	adj    map[int][]Edge
	edges  int
}

// BuildGraph constructs G_S: for every table's subject attribute, the
// value index proposes overlap candidates; an edge appears when the
// estimated overlap coefficient clears the bound and at least one
// endpoint is a subject attribute (the two SA-joinability conditions).
func BuildGraph(e *core.Engine, opts GraphOptions) *Graph {
	// A background context cannot cancel, so the error is unreachable.
	g, _ := BuildGraphCtx(context.Background(), e, opts)
	return g
}

// graphBlock is how many tables' candidates BuildGraphCtx generates
// before it merges them: it bounds the candidates pending at any moment
// (CandidateBudget per table) whatever the lake's size.
const graphBlock = 256

// candidate is one SA-join opportunity of a table's subject attribute
// that cleared the overlap bound: an edge, unless the table pair already
// has one.
type candidate struct {
	otherTID, attr int
	overlap        float64
}

// BuildGraphCtx is BuildGraph with cooperative cancellation: the build
// checks ctx between tables and returns ctx.Err() with no graph when
// cancelled — a partial graph is never handed out.
//
// Candidate generation — the I_V probe of each table's subject attribute
// and the overlap estimate of every candidate it returns — is independent
// per table and fans out over the engine's query workers, a block of
// tables at a time. What depends on order is the table-pair dedup: a pair
// keeps the first edge found for it, by table, then by the order I_V
// returned the candidates in, and adjacency lists grow in that order
// (the final sort by overlap is not stable, so where ties land depends on
// it, and Encode writes what it finds). So each block is merged
// sequentially, in table order, and the graph is the one a
// table-at-a-time build produces.
func BuildGraphCtx(ctx context.Context, e *core.Engine, opts GraphOptions) (*Graph, error) {
	if opts.CandidateBudget <= 0 {
		opts.CandidateBudget = 256
	}
	g := &Graph{engine: e, adj: make(map[int][]Edge)}
	numTables := e.Lake().Len()
	seen := make(map[[2]int]bool) // undirected table-pair dedup
	pending := make([][]candidate, min(graphBlock, numTables))
	for lo := 0; lo < numTables; lo += graphBlock {
		block := pending[:min(graphBlock, numTables-lo)]
		err := e.ForEachQuery(ctx, len(block), func(i int) {
			block[i] = subjectCandidates(e, opts, lo+i, block[i][:0])
		})
		if err != nil {
			return nil, err
		}
		for i, cands := range block {
			tid := lo + i
			subj, _ := e.SubjectAttr(tid)
			for _, c := range cands {
				key := [2]int{tid, c.otherTID}
				if c.otherTID < tid {
					key = [2]int{c.otherTID, tid}
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				g.adj[tid] = append(g.adj[tid], Edge{From: tid, To: c.otherTID, FromAttr: subj, ToAttr: c.attr, Overlap: c.overlap})
				g.adj[c.otherTID] = append(g.adj[c.otherTID], Edge{From: c.otherTID, To: tid, FromAttr: c.attr, ToAttr: subj, Overlap: c.overlap})
				g.edges++
			}
		}
	}
	// Each list is sorted in place, on its own, so the lists fan out too.
	lists := make([][]Edge, 0, len(g.adj))
	for _, edges := range g.adj {
		lists = append(lists, edges)
	}
	err := e.ForEachQuery(ctx, len(lists), func(i int) {
		edges := lists[i]
		sort.Slice(edges, func(a, b int) bool { return edges[a].Overlap > edges[b].Overlap })
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// subjectCandidates appends to dst, in the order the value index
// proposes them, the attributes of other live tables whose estimated
// overlap with table tid's subject attribute clears the bound. A table
// that is removed or has no subject attribute has none.
func subjectCandidates(e *core.Engine, opts GraphOptions, tid int, dst []candidate) []candidate {
	if !e.AliveTable(tid) {
		return dst // tombstoned by Engine.Remove
	}
	subj, ok := e.SubjectAttr(tid)
	if !ok {
		return dst
	}
	sp := e.Profile(subj)
	for _, candID := range e.VCandidates(subj, opts.CandidateBudget) {
		cp := e.Profile(candID)
		otherTID := cp.Ref.TableID
		if otherTID == tid || !e.AliveTable(otherTID) {
			continue
		}
		ov := e.OverlapCoefficient(sp, cp)
		if ov < overlapFloor(opts, e, sp, cp) {
			continue
		}
		dst = append(dst, candidate{otherTID: otherTID, attr: candID, overlap: ov})
	}
	return dst
}

// overlapFloor resolves the per-pair overlap threshold.
func overlapFloor(opts GraphOptions, e *core.Engine, a, b *core.Profile) float64 {
	if opts.MinOverlap > 0 {
		return opts.MinOverlap
	}
	tau := e.Threshold()
	na, nb := float64(a.TSize), float64(b.TSize)
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

// Neighbours returns the edges incident to a table.
func (g *Graph) Neighbours(tid int) []Edge { return g.adj[tid] }

// Edges reports the number of undirected edges.
func (g *Graph) Edges() int { return g.edges }

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

// FindJoinPaths runs Algorithm 3 from each top-k table: depth-first
// traversal of G_S collecting paths whose nodes (apart from the start)
// are outside the top-k, acyclic, and related to the target by at least
// one index.
func FindJoinPaths(g *Graph, topK []int, targetProfiles []core.Profile, opts PathOptions) map[int][]Path {
	out, _ := FindJoinPathsCtx(context.Background(), g, topK, targetProfiles, opts)
	return out
}

// FindJoinPathsCtx is FindJoinPaths with cooperative cancellation: the
// traversal checks ctx between DFS nodes (the target-relatedness guard
// behind each node is the expensive step) and returns ctx.Err() with
// no paths when cancelled.
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
		v := g.engine.TableRelatedToTarget(tid, targetProfiles)
		relCache[tid] = v
		return v
	}
	out := make(map[int][]Path, len(topK))
	for _, start := range topK {
		var paths []Path
		var dfs func(node int, path Path)
		dfs = func(node int, path Path) {
			if ctx.Err() != nil {
				return
			}
			if len(paths) >= opts.MaxPathsPerStart || len(path) >= opts.MaxDepth {
				return
			}
			for _, edge := range g.Neighbours(node) {
				ni := edge.To
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
	covered := e.RelatedTargetColumns(tableID, targetProfiles)
	return float64(len(covered)) / float64(len(targetProfiles))
}

// JoinCoverage computes the Eq. 5 combined coverage of a top-k table
// and all its join paths: the union of covered target columns over the
// start table and every table on every path.
func JoinCoverage(e *core.Engine, targetProfiles []core.Profile, start int, paths []Path) float64 {
	if len(targetProfiles) == 0 {
		return 0
	}
	covered := e.RelatedTargetColumns(start, targetProfiles)
	for _, p := range paths {
		for _, tid := range p {
			for col := range e.RelatedTargetColumns(tid, targetProfiles) {
				covered[col] = true
			}
		}
	}
	return float64(len(covered)) / float64(len(targetProfiles))
}

// Augmented pairs one top-k result with its discovered join paths and
// both coverage figures.
type Augmented struct {
	Result       core.TableResult
	Paths        []Path
	BaseCoverage float64 // Eq. 4
	JoinCoverage float64 // Eq. 5
}

// Augment runs the full D3L+J pipeline on a search result: build (or
// reuse) the SA-join graph, find join paths per top-k table, and
// compute coverage with and without joins.
func Augment(e *core.Engine, g *Graph, res *core.SearchResult, popts PathOptions) ([]Augmented, error) {
	return AugmentCtx(context.Background(), e, g, res, popts)
}

// AugmentCtx is Augment with cooperative cancellation: ctx is honoured
// through the path traversal and between the per-result coverage
// computations, and a cancelled call returns ctx.Err() with no partial
// augmentation.
func AugmentCtx(ctx context.Context, e *core.Engine, g *Graph, res *core.SearchResult, popts PathOptions) ([]Augmented, error) {
	if res == nil {
		return nil, fmt.Errorf("joins: nil search result")
	}
	topK := make([]int, len(res.Ranked))
	for i, r := range res.Ranked {
		topK[i] = r.TableID
	}
	pathsByStart, err := FindJoinPathsCtx(ctx, g, topK, res.TargetProfiles, popts)
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
			BaseCoverage: Coverage(e, res.TargetProfiles, r.TableID),
			JoinCoverage: JoinCoverage(e, res.TargetProfiles, r.TableID, paths),
		}
	}
	return out, nil
}

// ContributedTables returns the distinct non-top-k tables reachable via
// the join paths of an augmented answer — the extra datasets D3L+J
// would hand to downstream wrangling.
func ContributedTables(augs []Augmented) []int {
	inTopK := make(map[int]bool, len(augs))
	for _, a := range augs {
		inTopK[a.Result.TableID] = true
	}
	seen := make(map[int]bool)
	var out []int
	for _, a := range augs {
		for _, p := range a.Paths {
			for _, tid := range p {
				if !inTopK[tid] && !seen[tid] {
					seen[tid] = true
					out = append(out, tid)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}
