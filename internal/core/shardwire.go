package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"d3l/internal/persist"
)

// This file is the wire form of the gather partial. A partial is the
// bulk of the shard protocol — a few thousand best-pair rows and the
// counts of the Eq. 2 distance distributions — and as JSON it cost more
// to print and parse than the gather it carries. It travels instead as
// one sealed persist.Buffer: varints for every count, id and code,
// float64 by bit pattern for D distances and weights (the merge must see
// the very values the shard computed), CRC32-C trailer.
//
//	u32 magic "D3SP" · u32 version 2
//	meta:    varint NumCols, K, Budget · NumEvidence×bool Disabled ·
//	         NumEvidence×f64 Weights · bool Uniform ·
//	         varint MinHashSize, EmbedBits · u64 Seed
//	varint PairCount · varint TableCount
//	bool hasDists · [uvarint columns, codes, runs (the slab totals) ·
//	         per column: NumCoded × (uvarint n · n × (uvarint code,
//	         uvarint count)) · uvarint n · n × (f64 D, uvarint count)]
//	uvarint tables · uvarint rows (the slab total) ·
//	         per table: varint TableID · vstr Name · uvarint rows ·
//	         per row: uvarint TargetColumn, AttrID, CandColumn (uint32
//	         bit patterns) · NumCoded × uvarint code · f64 D
//	u32 CRC32-C of everything above
//
// Versioning: coordinator and replicas of one deployment are built
// from one tree and ship as one build, so there is one version and no
// negotiation; a layout change bumps shardPartialVersion and a mixed
// deployment fails closed (the decoder refuses the body with
// persist.ErrVersion, the coordinator treats the replica as failed).

const (
	shardPartialMagic   uint32 = 'D' | '3'<<8 | 'S'<<16 | 'P'<<24
	shardPartialVersion uint32 = 2

	// Smallest encodings of the composite elements, for Reader.VCount:
	// a column is its five cell lengths; a code is a code and a count; a
	// D run a float64 and a count; a row three ids, NumCoded codes and a
	// float64; a table an id, an empty name, a row count and (validation
	// demands it) one row.
	shardColumnWireBytes = 1 + NumCoded
	shardCodeWireBytes   = 2
	shardRunWireBytes    = 8 + 1
	shardRowWireBytes    = 3 + NumCoded + 8
	shardTableWireBytes  = 1 + 1 + 1 + shardRowWireBytes
)

// partialBufs recycles the Buffer EncodeShardPartial encodes into. It
// grows as the encoder appends, so the encoder alone sizes a body, and
// once it has held the largest body it stops growing.
var partialBufs = sync.Pool{New: func() any { return new(persist.Buffer) }}

// EncodeShardPartial renders a partial in the binary gather-body form:
// encoded into a recycled buffer, then copied out at exactly the body's
// size, its one allocation.
func EncodeShardPartial(p *ShardPartial) []byte {
	b := partialBufs.Get().(*persist.Buffer)
	defer partialBufs.Put(b)
	b.Reset()
	b.U32(shardPartialMagic)
	b.U32(shardPartialVersion)
	b.Varint(int64(p.Meta.NumCols))
	b.Varint(int64(p.Meta.K))
	b.Varint(int64(p.Meta.Budget))
	for _, d := range p.Meta.Disabled {
		b.Bool(d)
	}
	for _, w := range p.Meta.Weights {
		b.F64(w)
	}
	b.Bool(p.Meta.Uniform)
	b.Varint(int64(p.Meta.MinHashSize))
	b.Varint(int64(p.Meta.EmbedBits))
	b.U64(p.Meta.Seed)
	b.Varint(int64(p.PairCount))
	b.Varint(int64(p.TableCount))
	b.Bool(p.Dists != nil)
	if p.Dists != nil {
		codes, runs := 0, 0
		for i := range p.Dists {
			for _, cell := range p.Dists[i].Coded {
				codes += len(cell)
			}
			runs += len(p.Dists[i].Domain)
		}
		b.Uvarint(uint64(len(p.Dists)))
		b.Uvarint(uint64(codes))
		b.Uvarint(uint64(runs))
		for i := range p.Dists {
			for _, cell := range p.Dists[i].Coded {
				b.Uvarint(uint64(len(cell)))
				for _, cc := range cell {
					b.Uvarint(uint64(cc.Code))
					b.Uvarint(uint64(uint32(cc.Count)))
				}
			}
			b.Uvarint(uint64(len(p.Dists[i].Domain)))
			for _, run := range p.Dists[i].Domain {
				b.F64(run.Value)
				b.Uvarint(uint64(uint32(run.Count)))
			}
		}
	}
	rows := 0
	for i := range p.Tables {
		rows += len(p.Tables[i].Rows)
	}
	b.Uvarint(uint64(len(p.Tables)))
	b.Uvarint(uint64(rows))
	for i := range p.Tables {
		t := &p.Tables[i]
		b.Varint(int64(t.TableID))
		b.VStr(t.Name)
		b.Uvarint(uint64(len(t.Rows)))
		for j := range t.Rows {
			r := &t.Rows[j]
			b.Uvarint(uint64(uint32(r.TargetColumn)))
			b.Uvarint(uint64(uint32(r.AttrID)))
			b.Uvarint(uint64(uint32(r.CandColumn)))
			for _, c := range r.Dist.Codes {
				b.Uvarint(uint64(c))
			}
			b.F64(r.Dist.Domain)
		}
	}
	return slices.Clone(b.Sealed())
}

// wireReader is a persist.Reader that also refuses values out of their
// field's range: the first such value is the decode's error.
type wireReader struct {
	*persist.Reader
	err error
}

// bounded reads a Uvarint of at most max.
func (r *wireReader) bounded(max uint64, what string) uint64 {
	v := r.Uvarint()
	if v > max && r.err == nil {
		r.err = fmt.Errorf("%w: %s %d overflows %d", persist.ErrCorrupt, what, v, max)
	}
	return v
}

func (r *wireReader) code() uint16 { return uint16(r.bounded(math.MaxUint16, "code")) }
func (r *wireReader) count() int32 { return int32(r.bounded(math.MaxInt32, "count")) }
func (r *wireReader) id() int32    { return int32(uint32(r.bounded(math.MaxUint32, "id"))) }

// slab reads a slab total and makes a slice of that capacity, the
// elements of which take at least elemSize bytes each.
func slab[T any](r *wireReader, elemSize int) []T { return make([]T, 0, r.VCount(elemSize)) }

// take reads a cell length and appends that many elements to s with
// read, refusing a length the slab's declared total cannot hold. It
// returns s and the cell, a three-index sub-slice of it.
func take[T any](r *wireReader, s []T, elemSize int, read func() T) ([]T, []T) {
	n := r.VCount(elemSize)
	if n > cap(s)-len(s) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: a cell of %d past its slab's total %d", persist.ErrCorrupt, n, cap(s))
		}
		n = 0
	}
	start := len(s)
	for ; n > 0; n-- {
		s = append(s, read())
	}
	return s, s[start:len(s):len(s)]
}

// DecodeShardPartial parses a binary gather body. It answers an error
// or a partial that passes validate — never a panic, and never an
// allocation out of proportion to the body (every count is checked
// against the bytes that remain before anything is sized by it).
func DecodeShardPartial(data []byte) (*ShardPartial, error) {
	pr, err := persist.OpenSealed(data)
	if err != nil {
		return nil, fmt.Errorf("core: shard partial: %w", err)
	}
	if magic := pr.U32(); pr.Err() != nil || magic != shardPartialMagic {
		return nil, fmt.Errorf("core: shard partial: %w", persist.ErrMagic)
	}
	if v := pr.U32(); pr.Err() != nil || v != shardPartialVersion {
		return nil, fmt.Errorf("core: shard partial: %w: %d (this build reads %d)", persist.ErrVersion, v, shardPartialVersion)
	}
	r := &wireReader{Reader: pr}
	p := &ShardPartial{}
	p.Meta.NumCols = int(r.Varint())
	p.Meta.K = int(r.Varint())
	p.Meta.Budget = int(r.Varint())
	for t := range p.Meta.Disabled {
		p.Meta.Disabled[t] = r.Bool()
	}
	for t := range p.Meta.Weights {
		p.Meta.Weights[t] = r.F64()
	}
	p.Meta.Uniform = r.Bool()
	p.Meta.MinHashSize = int(r.Varint())
	p.Meta.EmbedBits = int(r.Varint())
	p.Meta.Seed = r.U64()
	p.PairCount = int(r.Varint())
	p.TableCount = int(r.Varint())
	// Cells and rows each land in a slab sized by the total the encoder
	// declared, checked against the bytes behind it; a cell or table that
	// would run past its slab's total is refused, so the slabs are
	// bounded by the body's size however the counts lie, and the cells
	// and tables are three-index sub-slices, so an append to one cannot
	// reach the next.
	if r.Bool() {
		p.Dists = make([]ColumnDists, r.VCount(shardColumnWireBytes))
		codes := slab[CodeCount](r, shardCodeWireBytes)
		runs := slab[DomainRun](r, shardRunWireBytes)
		readCode := func() CodeCount { return CodeCount{Code: r.code(), Count: r.count()} }
		readRun := func() DomainRun { return DomainRun{Value: r.F64(), Count: r.count()} }
		for i := range p.Dists {
			cd := &p.Dists[i]
			for t := range cd.Coded {
				codes, cd.Coded[t] = take(r, codes, shardCodeWireBytes, readCode)
			}
			runs, cd.Domain = take(r, runs, shardRunWireBytes, readRun)
		}
		if r.err == nil && (len(codes) != cap(codes) || len(runs) != cap(runs)) {
			r.err = fmt.Errorf("%w: %d codes and %d D runs where the slabs declare %d and %d", persist.ErrCorrupt, len(codes), len(runs), cap(codes), cap(runs))
		}
	}
	p.Tables = make([]ShardTable, r.VCount(shardTableWireBytes))
	rows := slab[ShardRow](r, shardRowWireBytes)
	readRow := func() ShardRow {
		row := ShardRow{TargetColumn: r.id(), AttrID: r.id(), CandColumn: r.id()}
		for e := range row.Dist.Codes {
			row.Dist.Codes[e] = r.code()
		}
		row.Dist.Domain = r.F64()
		return row
	}
	for i := range p.Tables {
		t := &p.Tables[i]
		t.TableID = int(r.Varint())
		t.Name = r.VStr()
		rows, t.Rows = take(r, rows, shardRowWireBytes, readRow)
	}
	if r.err == nil && len(rows) != cap(rows) {
		r.err = fmt.Errorf("%w: %d rows where the slab declares %d", persist.ErrCorrupt, len(rows), cap(rows))
	}
	if err := cmp.Or(r.err, pr.Err()); err != nil { // r.err, when set, came first
		return nil, fmt.Errorf("core: shard partial: %w", err)
	}
	if pr.Remaining() != 0 {
		return nil, fmt.Errorf("core: shard partial: %w: %d bytes after the last table", persist.ErrCorrupt, pr.Remaining())
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// validate checks the structural invariants MergeShardPartials indexes
// by, so a partial from the wire (a buggy, stale or hostile replica, or
// a proxy in between) is refused before it can panic the coordinator:
// k is at least 1; the sketch widths make a grid; the distributions are
// absent under uniform weighting and otherwise number NumCols, each
// cell ascending strictly with positive counts, codes on the grid, its
// five cells counting the same n and the columns' n adding up to
// PairCount, which fits an int32; the table count matches; every table
// has at least one row; rows ascend strictly by a target column inside
// [0, NumCols), and their codes lie on the grid.
func (p *ShardPartial) validate() error {
	m := &p.Meta
	numCols := m.NumCols
	if numCols < 0 {
		return fmt.Errorf("core: shard partial: negative column count %d", numCols)
	}
	if m.K < 1 {
		// The probe refuses such a spec; the merge's heap needs k ≥ 1.
		return fmt.Errorf("core: shard partial: k = %d, want at least 1", m.K)
	}
	if m.MinHashSize <= 0 || m.MinHashSize > maxGridWidth || m.EmbedBits <= 0 || m.EmbedBits > maxGridWidth {
		return fmt.Errorf("core: shard partial: sketch widths %d (MinHash) and %d (SimHash) off the grid's [1, %d]", m.MinHashSize, m.EmbedBits, maxGridWidth)
	}
	if p.PairCount < 0 || p.PairCount > math.MaxInt32 {
		return fmt.Errorf("core: shard partial: pair count %d outside [0, %d]", p.PairCount, math.MaxInt32)
	}
	width := [NumCoded]int{m.MinHashSize, m.MinHashSize, m.MinHashSize, m.EmbedBits}
	switch {
	case m.Uniform && p.Dists != nil:
		return fmt.Errorf("core: shard partial: distance distributions under uniform weighting")
	case !m.Uniform && len(p.Dists) != numCols:
		return fmt.Errorf("core: shard partial: distance distributions for %d columns, %d shipped", numCols, len(p.Dists))
	}
	var pairs int64
	for i := range p.Dists {
		cd := &p.Dists[i]
		var n [NumEvidence]int64
		for t, cell := range cd.Coded {
			for j, cc := range cell {
				if int(cc.Code) > width[t] || cc.Count <= 0 || j > 0 && cc.Code <= cell[j-1].Code {
					return fmt.Errorf("core: shard partial: column %d, %v cell: code %d (count %d) is off the grid of %d, not counted or out of order", i, Evidence(t), cc.Code, cc.Count, width[t])
				}
				n[t] += int64(cc.Count)
			}
		}
		for j, run := range cd.Domain {
			if run.Count <= 0 || j > 0 && !cmp.Less(cd.Domain[j-1].Value, run.Value) {
				return fmt.Errorf("core: shard partial: column %d, D cell: run %v (count %d) is not counted or out of order", i, run.Value, run.Count)
			}
			n[EvidenceDomain] += int64(run.Count)
		}
		for t := range n {
			if n[t] != n[0] {
				return fmt.Errorf("core: shard partial: column %d counts %d %v samples and %d %v samples", i, n[0], Evidence(0), n[t], Evidence(t))
			}
		}
		pairs += n[0]
	}
	if p.Dists != nil && pairs != int64(p.PairCount) {
		return fmt.Errorf("core: shard partial: the columns count %d samples for %d pairs", pairs, p.PairCount)
	}
	if p.TableCount != len(p.Tables) {
		return fmt.Errorf("core: shard partial: TableCount %d, %d tables shipped", p.TableCount, len(p.Tables))
	}
	for i := range p.Tables {
		t := &p.Tables[i]
		if len(t.Rows) == 0 {
			return fmt.Errorf("core: shard partial: table %q has no rows", t.Name)
		}
		prev := -1
		for _, row := range t.Rows {
			if col := int(row.TargetColumn); col <= prev || col >= numCols {
				return fmt.Errorf("core: shard partial: table %q row targets column %d (previous %d, %d columns)", t.Name, col, prev, numCols)
			}
			prev = int(row.TargetColumn)
			for e, c := range row.Dist.Codes {
				if int(c) > width[e] {
					return fmt.Errorf("core: shard partial: table %q row codes %v distance %d, off the grid of %d", t.Name, Evidence(e), c, width[e])
				}
			}
		}
	}
	return nil
}
