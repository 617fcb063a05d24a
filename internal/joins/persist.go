package joins

import (
	"fmt"
	"math"

	"d3l/internal/core"
	"d3l/internal/persist"
)

// Encode serialises the SA-join graph: the table count, each table's
// neighbour count, then every table's neighbour ids, all varints. The lists are written verbatim, in their
// stored order, so a decoded graph enumerates neighbours — and hence
// Algorithm 3 join paths — exactly like the original: path discovery is
// order-sensitive, and the overlaps that ordered the lists are not kept.
func (g *Graph) Encode(b *persist.Buffer) {
	b.Uvarint(uint64(len(g.off) - 1))
	for t := 1; t < len(g.off); t++ {
		b.Uvarint(uint64(g.off[t] - g.off[t-1]))
	}
	for _, t := range g.to {
		b.Uvarint(uint64(t))
	}
}

// DecodeGraph reconstructs a graph over the given engine (the engine
// backs the path guards, not the adjacency itself) from a graph section
// in Encode's layout: the table count, which must be the engine's, a
// neighbour count per table, which together are an even number of ids
// the bytes left can hold, then the ids, each a table's. Table ids are
// validated against the engine so a corrupt snapshot cannot smuggle
// out-of-range ids into path discovery.
func DecodeGraph(r *persist.Reader, e *core.Engine) (*Graph, error) {
	numTables := e.Lake().Len()
	n := r.VCount(1)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != numTables {
		return nil, fmt.Errorf("%w: join graph holds neighbour counts for %d of %d tables", persist.ErrCorrupt, n, numTables)
	}
	off := make([]int32, n+1)
	total := uint64(0)
	for t := range n {
		total += min(r.Uvarint(), math.MaxInt32)
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Every id takes a byte at least, so the counts cannot declare
		// more ids than the bytes after them.
		if total > uint64(r.Remaining()) {
			return nil, fmt.Errorf("%w: join graph neighbour counts reach %d ids with %d bytes left", persist.ErrCorrupt, total, r.Remaining())
		}
		off[t+1] = int32(total)
	}
	if total%2 != 0 {
		return nil, fmt.Errorf("%w: join graph holds an odd %d neighbour ids", persist.ErrCorrupt, total)
	}
	to := make([]int32, total)
	for i := range to {
		t := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if t >= uint64(numTables) {
			return nil, fmt.Errorf("%w: join graph neighbour id %d of %d tables", persist.ErrCorrupt, t, numTables)
		}
		to[i] = int32(t)
	}
	return &Graph{engine: e, off: off, to: to}, nil
}
