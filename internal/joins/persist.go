package joins

import (
	"fmt"
	"math"

	"d3l/internal/core"
	"d3l/internal/persist"
)

// Encode serialises the SA-join graph in the layout of snapshot version
// 6: the table count, each table's neighbour count, then every table's
// neighbour ids, all varints. The lists are written verbatim, in their
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

// EncodedSize reports exactly how many bytes Encode appends.
func (g *Graph) EncodedSize() int {
	n := persist.UvarintLen(uint64(len(g.off) - 1))
	for t := 1; t < len(g.off); t++ {
		n += persist.UvarintLen(uint64(g.off[t] - g.off[t-1]))
	}
	for _, t := range g.to {
		n += persist.UvarintLen(uint64(t))
	}
	return n
}

// legacyEntryEnc is one adjacency-list entry of a version 2–4 graph
// section: From, To, FromAttr, ToAttr as I64 and the overlap as F64.
const legacyEntryEnc = 4*8 + 8

// DecodeGraph reconstructs a graph over the given engine (the engine
// backs the path guards, not the adjacency itself) from a graph section
// of the given snapshot version: Encode's layout from version 6 on, the
// same counts and ids as uint32 offsets and ids in version 5, and the
// full-edge adjacency lists before it, of which only each entry's
// neighbour id is kept. Table ids are validated against the engine so a
// corrupt snapshot cannot smuggle out-of-range ids into path discovery,
// and a graph whose entry count is not twice its edge count is refused.
func DecodeGraph(r *persist.Reader, version uint32, e *core.Engine) (*Graph, error) {
	var off, to []int32
	var err error
	switch {
	case version >= 6:
		off, to, err = decodeVarint(r, e.Lake().Len())
	case version == 5:
		off, to, err = decodeCSR(r, e.Lake().Len())
	default:
		off, to, err = decodeLegacy(r, e.Lake().Len(), e.NumAttributes())
	}
	if err != nil {
		return nil, err
	}
	return &Graph{engine: e, off: off, to: to}, nil
}

// decodeVarint reads Encode's layout: the table count, a neighbour count
// per table, which together are an even number of ids the bytes left can
// hold, then the ids, each a table's.
func decodeVarint(r *persist.Reader, numTables int) (off, to []int32, err error) {
	n := r.VCount(1)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n != numTables {
		return nil, nil, fmt.Errorf("%w: join graph holds neighbour counts for %d of %d tables", persist.ErrCorrupt, n, numTables)
	}
	off = make([]int32, n+1)
	total := uint64(0)
	for t := range n {
		total += min(r.Uvarint(), math.MaxInt32)
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		// Every id takes a byte at least, so the counts cannot declare
		// more ids than the bytes after them.
		if total > uint64(r.Remaining()) {
			return nil, nil, fmt.Errorf("%w: join graph neighbour counts reach %d ids with %d bytes left", persist.ErrCorrupt, total, r.Remaining())
		}
		off[t+1] = int32(total)
	}
	if total%2 != 0 {
		return nil, nil, fmt.Errorf("%w: join graph holds an odd %d neighbour ids", persist.ErrCorrupt, total)
	}
	to = make([]int32, total)
	for i := range to {
		t := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		if t >= uint64(numTables) {
			return nil, nil, fmt.Errorf("%w: join graph neighbour id %d of %d tables", persist.ErrCorrupt, t, numTables)
		}
		to[i] = int32(t)
	}
	return off, to, nil
}

// decodeCSR reads the version 5 layout: one uint32 offset per table
// plus one, starting at 0, never decreasing and ending at the id count,
// which is even; every id a table's, a uint32.
func decodeCSR(r *persist.Reader, numTables int) (off, to []int32, err error) {
	n := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n != numTables+1 {
		return nil, nil, fmt.Errorf("%w: join graph holds %d offsets for %d tables", persist.ErrCorrupt, n, numTables)
	}
	off = make([]int32, n)
	for i := range off {
		o := r.U32()
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		if (i == 0 && o != 0) || (i > 0 && o < uint32(off[i-1])) || o > math.MaxInt32 {
			return nil, nil, fmt.Errorf("%w: join graph offset %d is %d", persist.ErrCorrupt, i, o)
		}
		off[i] = int32(o)
	}
	m := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if m != int(off[numTables]) || m%2 != 0 {
		return nil, nil, fmt.Errorf("%w: join graph holds %d neighbour ids, its offsets end at %d", persist.ErrCorrupt, m, off[numTables])
	}
	to = make([]int32, m)
	for i := range to {
		t := r.U32()
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		if t >= uint32(numTables) {
			return nil, nil, fmt.Errorf("%w: join graph neighbour id %d of %d tables", persist.ErrCorrupt, t, numTables)
		}
		to[i] = int32(t)
	}
	return off, to, nil
}

// decodeLegacy reads the version 2–4 layout — a declared edge count, then
// per table its id and its list of full edges — and keeps each entry's
// neighbour id, in order. An entry must belong to the table whose list
// holds it, and the edge count must be half the entries.
func decodeLegacy(r *persist.Reader, numTables, numAttrs int) (off, to []int32, err error) {
	edges := r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n < 0 || n > numTables {
		return nil, nil, fmt.Errorf("%w: join graph declares %d adjacency lists for %d tables", persist.ErrCorrupt, n, numTables)
	}
	lists := make([][]int32, numTables)
	seen := make([]bool, numTables)
	total := 0
	for range n {
		tid := int(r.I64())
		m := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		if tid < 0 || tid >= numTables {
			return nil, nil, fmt.Errorf("%w: join graph table id %d of %d", persist.ErrCorrupt, tid, numTables)
		}
		// Bounding the allocation by the entries' encoded size keeps a
		// crafted count from amplifying into a huge make([]int32, m).
		if m < 0 || m > r.Remaining()/legacyEntryEnc {
			return nil, nil, fmt.Errorf("%w: table %d declares %d edges in %d bytes", persist.ErrCorrupt, tid, m, r.Remaining())
		}
		if seen[tid] {
			return nil, nil, fmt.Errorf("%w: duplicate adjacency list for table %d", persist.ErrCorrupt, tid)
		}
		seen[tid] = true
		list := make([]int32, m)
		for j := range list {
			from, nb, fromAttr, toAttr := r.I64(), r.I64(), r.I64(), r.I64()
			r.F64() // the overlap, which nothing reads
			if err := r.Err(); err != nil {
				return nil, nil, err
			}
			if from < 0 || from >= int64(numTables) || nb < 0 || nb >= int64(numTables) ||
				fromAttr < 0 || fromAttr >= int64(numAttrs) || toAttr < 0 || toAttr >= int64(numAttrs) {
				return nil, nil, fmt.Errorf("%w: join edge %d->%d (attrs %d->%d) out of range", persist.ErrCorrupt, from, nb, fromAttr, toAttr)
			}
			if from != int64(tid) {
				return nil, nil, fmt.Errorf("%w: join edge %d->%d in table %d's list", persist.ErrCorrupt, from, nb, tid)
			}
			list[j] = int32(nb)
		}
		lists[tid] = list
		total += m
	}
	if total%2 != 0 || edges != uint64(total/2) {
		return nil, nil, fmt.Errorf("%w: join graph declares %d edges over %d adjacency entries", persist.ErrCorrupt, edges, total)
	}
	off = make([]int32, numTables+1)
	to = make([]int32, 0, total)
	for t, list := range lists {
		to = append(to, list...)
		off[t+1] = int32(len(to))
	}
	return off, to, nil
}
