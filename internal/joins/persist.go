package joins

import (
	"fmt"
	"sort"

	"d3l/internal/core"
	"d3l/internal/persist"
)

// Encode serialises the SA-join graph's adjacency lists. Lists are
// written verbatim (both directions of every undirected edge, in their
// stored order), so a decoded graph enumerates neighbours — and hence
// Algorithm 3 join paths — exactly like the original: path discovery
// is order-sensitive, and re-deriving the order from overlaps would
// let sort ties reorder it.
func (g *Graph) Encode(b *persist.Buffer) {
	b.U64(uint64(g.edges))
	tids := make([]int, 0, len(g.adj))
	for tid := range g.adj {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	b.U32(uint32(len(tids)))
	for _, tid := range tids {
		b.I64(int64(tid))
		edges := g.adj[tid]
		b.U32(uint32(len(edges)))
		for _, e := range edges {
			b.I64(int64(e.From))
			b.I64(int64(e.To))
			b.I64(int64(e.FromAttr))
			b.I64(int64(e.ToAttr))
			b.F64(e.Overlap)
		}
	}
}

// edgeEnc is one encoded edge: 4×I64 + F64.
const edgeEnc = 4*8 + 8

// EncodedSize reports exactly how many bytes Encode appends.
func (g *Graph) EncodedSize() int {
	n := 8 + 4
	for _, edges := range g.adj {
		n += 8 + 4 + len(edges)*edgeEnc
	}
	return n
}

// DecodeGraph reconstructs a graph written by Encode over the given
// engine (the engine backs the path guards, not the adjacency itself).
// Table and attribute ids are validated against the engine so a
// corrupt snapshot cannot smuggle out-of-range ids into path
// discovery.
func DecodeGraph(r *persist.Reader, e *core.Engine) (*Graph, error) {
	numTables := e.Lake().Len()
	numAttrs := e.NumAttributes()
	g := &Graph{engine: e, adj: make(map[int][]Edge)}
	g.edges = int(r.U64())
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if g.edges < 0 || n < 0 || n > numTables {
		return nil, fmt.Errorf("%w: join graph declares %d adjacency lists, %d edges", persist.ErrCorrupt, n, g.edges)
	}
	for i := 0; i < n; i++ {
		tid := int(r.I64())
		m := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if tid < 0 || tid >= numTables {
			return nil, fmt.Errorf("%w: join graph table id %d of %d", persist.ErrCorrupt, tid, numTables)
		}
		// Bounding the allocation by the edges' encoded size keeps a
		// crafted count from amplifying into a huge make([]Edge, m).
		if m < 0 || m > r.Remaining()/edgeEnc {
			return nil, fmt.Errorf("%w: table %d declares %d edges in %d bytes", persist.ErrCorrupt, tid, m, r.Remaining())
		}
		edges := make([]Edge, m)
		for j := range edges {
			edges[j] = Edge{
				From:     int(r.I64()),
				To:       int(r.I64()),
				FromAttr: int(r.I64()),
				ToAttr:   int(r.I64()),
				Overlap:  r.F64(),
			}
			if err := r.Err(); err != nil {
				return nil, err
			}
			ed := edges[j]
			if ed.From < 0 || ed.From >= numTables || ed.To < 0 || ed.To >= numTables ||
				ed.FromAttr < 0 || ed.FromAttr >= numAttrs || ed.ToAttr < 0 || ed.ToAttr >= numAttrs {
				return nil, fmt.Errorf("%w: join edge %d->%d (attrs %d->%d) out of range", persist.ErrCorrupt, ed.From, ed.To, ed.FromAttr, ed.ToAttr)
			}
		}
		if _, dup := g.adj[tid]; dup {
			return nil, fmt.Errorf("%w: duplicate adjacency list for table %d", persist.ErrCorrupt, tid)
		}
		g.adj[tid] = edges
	}
	return g, r.Err()
}
