package core

import (
	"fmt"
	"slices"

	"d3l/internal/persist"
)

// This file is the wire form of the gather partial. A partial is the
// bulk of the shard protocol — a thousand best-pair rows and as many
// Eq. 2 distance samples per evidence type — and as JSON it cost more
// to print and parse than the gather it carries. It travels instead as
// one sealed persist.Buffer: little-endian fixed-width values, float64
// by bit pattern (the merge must see the very distances the shard
// computed), counts length-prefixed, CRC32-C trailer.
//
//	u32 magic "D3SP" · u32 version
//	meta:    i64 NumCols, K, Budget · NumEvidence×bool Disabled ·
//	         NumEvidence×f64 Weights · bool Uniform
//	i64 PairCount · i64 TableCount
//	bool hasSamples · [u32 cells · cells×f64s]
//	u32 tables · per table: i64 TableID · str Name · u32 rows ·
//	         per row: 3×i32 TargetColumn, AttrID, CandColumn ·
//	         NumEvidence×f64 Distances
//	u32 CRC32-C of everything above
//
// Versioning: coordinator and replicas of one deployment are built
// from one tree, so there is one version and no negotiation; a layout
// change bumps shardPartialVersion and a mixed deployment fails closed
// (the decoder rejects, the coordinator treats the replica as failed).

const (
	shardPartialMagic   uint32 = 'D' | '3'<<8 | 'S'<<16 | 'P'<<24
	shardPartialVersion uint32 = 1

	// Smallest encodings of the composite elements, for Reader.Count:
	// a row is three i32 and NumEvidence f64; a table is an id, an
	// empty name, a row count and (validation demands it) one row.
	shardRowWireBytes   = 3*4 + 8*int(NumEvidence)
	shardTableWireBytes = 8 + 4 + 4 + shardRowWireBytes

	// Everything that is there whatever the partial holds: magic and
	// version, the meta block, the two counts, the sample flag, the
	// table count and the CRC trailer.
	shardFixedWireBytes = 4 + 4 + 3*8 + int(NumEvidence) + 8*int(NumEvidence) + 1 + 8 + 8 + 1 + 4 + 4
)

// wireBytes is the exact size of the partial's encoding, trailer
// included: what EncodeShardPartial reserves before its first byte.
func (p *ShardPartial) wireBytes() int {
	n := shardFixedWireBytes
	if p.Samples != nil {
		n += 4
		for _, cell := range p.Samples {
			n += 4 + 8*len(cell)
		}
	}
	for i := range p.Tables {
		n += shardTableWireBytes - shardRowWireBytes + len(p.Tables[i].Name) + shardRowWireBytes*len(p.Tables[i].Rows)
	}
	return n
}

// EncodeShardPartial renders a partial in the binary gather-body form:
// one allocation, of exactly the body's size.
func EncodeShardPartial(p *ShardPartial) []byte {
	var b persist.Buffer
	b.Grow(p.wireBytes())
	b.U32(shardPartialMagic)
	b.U32(shardPartialVersion)
	b.I64(int64(p.Meta.NumCols))
	b.I64(int64(p.Meta.K))
	b.I64(int64(p.Meta.Budget))
	for _, d := range p.Meta.Disabled {
		b.Bool(d)
	}
	for _, w := range p.Meta.Weights {
		b.F64(w)
	}
	b.Bool(p.Meta.Uniform)
	b.I64(int64(p.PairCount))
	b.I64(int64(p.TableCount))
	b.Bool(p.Samples != nil)
	if p.Samples != nil {
		b.U32(uint32(len(p.Samples)))
		for _, cell := range p.Samples {
			b.F64s(cell)
		}
	}
	b.U32(uint32(len(p.Tables)))
	for i := range p.Tables {
		t := &p.Tables[i]
		b.I64(int64(t.TableID))
		b.Str(t.Name)
		b.U32(uint32(len(t.Rows)))
		for j := range t.Rows {
			r := &t.Rows[j]
			b.U32(uint32(int32(r.TargetColumn)))
			b.U32(uint32(int32(r.AttrID)))
			b.U32(uint32(int32(r.CandColumn)))
			for _, d := range r.Distances {
				b.F64(d)
			}
		}
	}
	return b.Sealed()
}

// DecodeShardPartial parses a binary gather body. It answers an error
// or a partial that passes Validate — never a panic, and never an
// allocation out of proportion to the body (every count is checked
// against the bytes that remain before anything is sized by it).
func DecodeShardPartial(data []byte) (*ShardPartial, error) {
	r, err := persist.OpenSealed(data)
	if err != nil {
		return nil, fmt.Errorf("core: shard partial: %w", err)
	}
	if magic := r.U32(); r.Err() != nil || magic != shardPartialMagic {
		return nil, fmt.Errorf("core: shard partial: %w", persist.ErrMagic)
	}
	if v := r.U32(); r.Err() != nil || v != shardPartialVersion {
		return nil, fmt.Errorf("core: shard partial: %w: %d (this build reads %d)", persist.ErrVersion, v, shardPartialVersion)
	}
	p := &ShardPartial{}
	p.Meta.NumCols = int(r.I64())
	p.Meta.K = int(r.I64())
	p.Meta.Budget = int(r.I64())
	for t := range p.Meta.Disabled {
		p.Meta.Disabled[t] = r.Bool()
	}
	for t := range p.Meta.Weights {
		p.Meta.Weights[t] = r.F64()
	}
	p.Meta.Uniform = r.Bool()
	p.PairCount = int(r.I64())
	p.TableCount = int(r.I64())
	// Cells and rows each land in one slab, sized by a first pass over a
	// copy of the reader that only adds up the counts. Every count is
	// checked against the bytes behind it and then skipped over, so the
	// totals — and with them the slabs — are bounded by the body's size
	// however the counts lie; the cells and tables are three-index
	// sub-slices, so an append to one cannot reach the next.
	if r.Bool() {
		p.Samples = make([][]float64, r.Count(4))
		scan, total := *r, 0
		for range p.Samples {
			n := scan.Count(8)
			scan.Skip(8 * n)
			total += n
		}
		slab := make([]float64, 0, total)
		for i := range p.Samples {
			start := len(slab)
			slab = r.AppendF64s(slab)
			p.Samples[i] = slab[start:len(slab):len(slab)]
		}
	}
	p.Tables = make([]ShardTable, r.Count(shardTableWireBytes))
	scan, total := *r, 0
	for range p.Tables {
		scan.Skip(8)
		scan.Skip(scan.Count(1))
		n := scan.Count(shardRowWireBytes)
		scan.Skip(shardRowWireBytes * n)
		total += n
	}
	slab := make([]Alignment, 0, total)
	for i := range p.Tables {
		t := &p.Tables[i]
		t.TableID = int(r.I64())
		t.Name = r.Str()
		start := len(slab)
		for n := r.Count(shardRowWireBytes); n > 0; n-- {
			var row Alignment
			row.TargetColumn = int(int32(r.U32()))
			row.AttrID = int(int32(r.U32()))
			row.CandColumn = int(int32(r.U32()))
			for e := range row.Distances {
				row.Distances[e] = r.F64()
			}
			slab = append(slab, row)
		}
		t.Rows = slab[start:len(slab):len(slab)]
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: shard partial: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: shard partial: %w: %d bytes after the last table", persist.ErrCorrupt, r.Remaining())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the structural invariants MergeShardPartials indexes
// by, so a partial from the wire (a buggy, stale or hostile replica, or
// a proxy in between) is refused before it can panic the coordinator:
// sample cells are absent under uniform weighting and otherwise number
// NumCols×NumEvidence, each sorted; the table count matches; every
// table has at least one row; rows ascend strictly by a target column
// inside [0, NumCols).
func (p *ShardPartial) Validate() error {
	numCols := p.Meta.NumCols
	if numCols < 0 {
		return fmt.Errorf("core: shard partial: negative column count %d", numCols)
	}
	switch {
	case p.Meta.Uniform && p.Samples != nil:
		return fmt.Errorf("core: shard partial: sample cells under uniform weighting")
	case !p.Meta.Uniform && (len(p.Samples)%int(NumEvidence) != 0 || len(p.Samples)/int(NumEvidence) != numCols):
		// Divided, not multiplied: a hostile NumCols must not overflow
		// its way past the check the ECDF indexing relies on.
		return fmt.Errorf("core: shard partial: %d sample cells for %d columns, want %d per column", len(p.Samples), numCols, int(NumEvidence))
	}
	for i, cell := range p.Samples {
		if !slices.IsSorted(cell) {
			return fmt.Errorf("core: shard partial: sample cell %d is not sorted", i)
		}
	}
	if p.TableCount != len(p.Tables) {
		return fmt.Errorf("core: shard partial: TableCount %d, %d tables shipped", p.TableCount, len(p.Tables))
	}
	if p.PairCount < 0 {
		return fmt.Errorf("core: shard partial: negative pair count %d", p.PairCount)
	}
	for i := range p.Tables {
		t := &p.Tables[i]
		if len(t.Rows) == 0 {
			return fmt.Errorf("core: shard partial: table %q has no rows", t.Name)
		}
		prev := -1
		for _, row := range t.Rows {
			if row.TargetColumn <= prev || row.TargetColumn >= numCols {
				return fmt.Errorf("core: shard partial: table %q row targets column %d (previous %d, %d columns)", t.Name, row.TargetColumn, prev, numCols)
			}
			prev = row.TargetColumn
		}
	}
	return nil
}
